#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "compression/best_of.hpp"
#include "trace/sampled_source.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {
namespace {

TEST(AppProfiles, AllFifteenWorkloadsPresent) {
  const auto& apps = spec2006_profiles();
  EXPECT_EQ(apps.size(), 15u);
  for (const char* name : {"GemsFDTD", "lbm", "bzip2", "leslie3d", "hmmer", "mcf", "gobmk",
                           "bwaves", "astar", "calculix", "sjeng", "gcc", "zeusmp", "milc",
                           "cactusADM"}) {
    EXPECT_NO_THROW((void)profile_by_name(name));
  }
  EXPECT_THROW((void)profile_by_name("perlbench"), std::out_of_range);
}

TEST(AppProfiles, BucketsMatchTableThree) {
  // CR < 0.3 -> H; CR >= 0.7 -> L; else M (Section IV; Table III labels the
  // 0.70-CR apps GemsFDTD and leslie3d as L).
  for (const auto& app : spec2006_profiles()) {
    if (app.table_cr < 0.3) {
      EXPECT_EQ(app.bucket, Compressibility::kHigh) << app.name;
    } else if (app.table_cr >= 0.7) {
      EXPECT_EQ(app.bucket, Compressibility::kLow) << app.name;
    } else {
      EXPECT_EQ(app.bucket, Compressibility::kMedium) << app.name;
    }
  }
}

TEST(ValueModel, GenerationIsDeterministic) {
  const auto& app = profile_by_name("gcc");
  for (const auto& spec : app.classes) {
    const Block a = generate_value(spec, 123, 456, 7);
    const Block b = generate_value(spec, 123, 456, 7);
    EXPECT_EQ(a, b);
    const Block c = generate_value(spec, 123, 456, 8);
    EXPECT_NE(a, c) << "a rewrite must change the content";
  }
}

TEST(ValueModel, RewritesTouchBoundedWordCount) {
  ValueClassSpec spec;
  spec.cls = ValueClass::kRandom;
  spec.mutate_min = 2;
  spec.mutate_max = 5;
  for (std::uint32_t v = 1; v < 40; ++v) {
    const Block base = generate_value(spec, 9, 1, 0);
    const Block now = generate_value(spec, 9, 1, v);
    std::size_t words_changed = 0;
    for (std::size_t w = 0; w < 16; ++w) {
      if (std::memcmp(base.data() + w * 4, now.data() + w * 4, 4) != 0) ++words_changed;
    }
    EXPECT_GE(words_changed, 1u);
    EXPECT_LE(words_changed, 5u);
  }
}

// Calibration: best-of compressed sizes of the sampled stream must land near
// Table III's per-app compression ratios. Tolerance is generous here; the
// fig03 bench reports exact values (see EXPERIMENTS.md).
class Calibration : public ::testing::TestWithParam<const char*> {};

TEST_P(Calibration, CompressedSizeNearTableThree) {
  const auto& app = profile_by_name(GetParam());
  SampledTraceSource source(app, 1 << 14, 1234);
  TraceCursor gen(source);
  BestOfCompressor best;
  double total = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto ev = gen.next();
    const auto c = best.compress(ev.data);
    total += c ? static_cast<double>(c->size_bytes()) : 64.0;
  }
  const double measured_cr = total / n / 64.0;
  EXPECT_NEAR(measured_cr, app.table_cr, 0.12)
      << app.name << ": measured CR " << measured_cr << " vs Table III " << app.table_cr;
}

INSTANTIATE_TEST_SUITE_P(AllApps, Calibration,
                         ::testing::Values("GemsFDTD", "lbm", "bzip2", "leslie3d", "hmmer",
                                           "mcf", "gobmk", "bwaves", "astar", "calculix",
                                           "sjeng", "gcc", "zeusmp", "milc", "cactusADM"));

TEST(Calibration, SizeVolatilityRankingMatchesFigureSix) {
  // bzip2 and gcc must churn sizes far more than hmmer (Fig 6/7).
  BestOfCompressor best;
  auto change_prob = [&](const char* name) {
    const auto& app = profile_by_name(name);
    SampledTraceSource source(app, 1 << 12, 77);
    TraceCursor gen(source);
    std::map<LineAddr, std::size_t> last_size;
    int changes = 0;
    int pairs = 0;
    for (int i = 0; i < 30000; ++i) {
      const auto ev = gen.next();
      const auto c = best.compress(ev.data);
      const std::size_t size = c ? c->size_bytes() : 64;
      const auto it = last_size.find(ev.line);
      if (it != last_size.end()) {
        ++pairs;
        if (it->second != size) ++changes;
      }
      last_size[ev.line] = size;
    }
    return pairs ? static_cast<double>(changes) / pairs : 0.0;
  };
  const double bzip2 = change_prob("bzip2");
  const double gcc = change_prob("gcc");
  const double hmmer = change_prob("hmmer");
  EXPECT_GT(bzip2, hmmer + 0.15);
  EXPECT_GT(gcc, hmmer + 0.15);
}

}  // namespace
}  // namespace pcmsim
