// SampledTraceSource calibration against the workload model's own
// definitions, plus the value-model decomposition identity the sampler's
// incremental advance relies on.
//
// The model defines a line's write probability (ZipfSampler's rank pmf folded
// onto the region by fold_rank), its value class (ClassAssigner), its shape
// churn (shape_redraw_prob per rewrite) and its value (generate_value). The
// sampler implements the same model with an alias table, flat state and
// incremental value updates; these tests check its stream against each
// definition directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/zipf.hpp"
#include "trace/sampled_source.hpp"
#include "trace/trace_source.hpp"
#include "workload/app_profile.hpp"
#include "workload/value_model.hpp"

namespace pcmsim {
namespace {

constexpr std::uint64_t kRegion = 512;
constexpr std::uint64_t kSeed = 97;

std::vector<WritebackEvent> drain(TraceSource& source, std::size_t n,
                                  std::size_t batch_size = 256) {
  std::vector<WritebackEvent> out(n);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t want = std::min(batch_size, n - done);
    done += source.next_batch(std::span(out.data() + done, want));
  }
  return out;
}

/// Per-line write probability the model defines: the Zipf rank pmf folded
/// onto the region through fold_rank.
std::vector<double> folded_pmf(const AppProfile& app, std::uint64_t region,
                               std::uint64_t seed) {
  const ZipfSampler zipf(app.working_set_lines, app.zipf_theta);
  std::vector<double> p(region, 0.0);
  for (std::uint64_t rank = 0; rank < zipf.universe(); ++rank) {
    p[fold_rank(rank, seed, region)] += zipf.pmf(rank);
  }
  return p;
}

// The decomposition contract: generate_static_base + apply_dynamic must equal
// generate_value at every version, and reverting the touched words of version
// v then applying version v+1 must equal generate_value at v+1. This is
// precisely the incremental step SampledTraceSource::produce runs.
TEST(ValueModelDecomposition, MatchesFromScratchGenerationIncrementally) {
  for (const char* name : {"gcc", "milc", "lbm", "zeusmp", "mcf"}) {
    const AppProfile& app = profile_by_name(name);
    for (std::uint64_t line = 0; line < 40; ++line) {
      const ValueClassSpec& spec = app.classes[line % app.classes.size()];
      const auto shape = initial_line_shape(line, kSeed);
      const ValueGenContext ctx = make_gen_context(spec, line, shape);
      Block base{};
      generate_static_base(spec, ctx, base);

      Block incremental = base;
      std::uint16_t touched = apply_dynamic(spec, ctx, line, shape, 0, incremental);
      for (std::uint32_t version = 0; version < 24; ++version) {
        ASSERT_EQ(incremental, generate_value(spec, line, shape, version))
            << name << " line " << line << " version " << version;
        // Advance: revert touched words to base, overlay the next version.
        std::uint16_t m = touched;
        while (m != 0) {
          const unsigned w = static_cast<unsigned>(std::countr_zero(m));
          m = static_cast<std::uint16_t>(m & (m - 1));
          std::memcpy(incremental.data() + w * 4, base.data() + w * 4, 4);
        }
        touched = apply_dynamic(spec, ctx, line, shape, version + 1, incremental);
      }
    }
  }
}

TEST(SampledTraceSource, ClassAssignmentIsClassAssigner) {
  const AppProfile& app = profile_by_name("gcc");
  const ClassAssigner classes(app, kSeed);
  SampledTraceSource sampled(app, kRegion, kSeed);
  for (std::uint64_t line = 0; line < kRegion; ++line) {
    EXPECT_EQ(&classes.of(line) - app.classes.data(),
              &sampled.class_of(line) - sampled.app().classes.data())
        << "line " << line;
  }
}

TEST(SampledTraceSource, PopularityDistributionMatchesFoldedZipfPmf) {
  // milc (theta 0.5 over 2^20 lines) folds to a nearly flat region, which
  // the KS gap checks; hmmer (theta 0.9 over 2^18) keeps a few lines above
  // 1% of the traffic, which the pointwise head check pins.
  for (const char* name : {"milc", "hmmer"}) {
    SCOPED_TRACE(name);
    const AppProfile& app = profile_by_name(name);
    constexpr std::size_t kEvents = 200000;
    const std::vector<double> expect = folded_pmf(app, kRegion, kSeed);

    SampledTraceSource sampled(app, kRegion, kSeed);
    std::vector<std::uint64_t> counts(kRegion, 0);
    for (const auto& ev : drain(sampled, kEvents)) ++counts[ev.line];

    // KS distance over the line-index ordering between the empirical and the
    // exact per-line distribution. D_crit at alpha=0.001 for n=200k is
    // ~0.0044; 0.02 leaves wide margin while still catching any real
    // miscalibration.
    double cdf_gap = 0.0;
    double ce = 0.0;
    double cs = 0.0;
    for (std::uint64_t line = 0; line < kRegion; ++line) {
      ce += expect[line];
      cs += static_cast<double>(counts[line]) / kEvents;
      cdf_gap = std::max(cdf_gap, std::abs(ce - cs));
    }
    EXPECT_LT(cdf_gap, 0.02);

    // The popular-head mass must also agree pointwise (relative), not just
    // in the aggregate CDF: compare every line that holds >=1% of the
    // traffic.
    for (std::uint64_t line = 0; line < kRegion; ++line) {
      const double ps = static_cast<double>(counts[line]) / kEvents;
      if (expect[line] >= 0.01) {
        EXPECT_NEAR(ps / expect[line], 1.0, 0.15) << "line " << line;
      }
    }
  }
}

TEST(SampledTraceSource, RedrawRateAndTouchedSetMatchTheModel) {
  const AppProfile& app = profile_by_name("gcc");
  constexpr std::size_t kEvents = 200000;
  SampledTraceSource sampled(app, kRegion, kSeed);
  (void)drain(sampled, kEvents);

  // Shape redraws happen per *rewrite* with probability shape_redraw_prob; at
  // 200k events over 512 lines nearly every event is a rewrite, so the rate
  // concentrates tightly around the configured value.
  const double rate = static_cast<double>(sampled.shape_redraws()) / kEvents;
  EXPECT_NEAR(rate, app.shape_redraw_prob, 0.2 * app.shape_redraw_prob + 1e-4);

  // At 200k events the stream has saturated the set of lines fold_rank can
  // reach from the working set.
  std::vector<bool> reachable(kRegion, false);
  for (std::uint64_t rank = 0; rank < app.working_set_lines; ++rank) {
    reachable[fold_rank(rank, kSeed, kRegion)] = true;
  }
  const auto reachable_lines =
      static_cast<std::uint64_t>(std::count(reachable.begin(), reachable.end(), true));
  EXPECT_EQ(sampled.touched_lines(), reachable_lines);
}

TEST(SampledTraceSource, ZeroFractionMatchesTheValueModel) {
  // Mean zero-byte fraction — the main driver of compressibility — must match
  // the value model's expectation under the folded popularity pmf: each
  // line's generate_value averaged over random shapes and early versions.
  const AppProfile& app = profile_by_name("zeusmp");
  constexpr std::size_t kEvents = 50000;
  const std::vector<double> p = folded_pmf(app, kRegion, kSeed);
  const ClassAssigner classes(app, kSeed);
  Rng rng(kSeed);
  double expect = 0.0;
  for (std::uint64_t line = 0; line < kRegion; ++line) {
    if (p[line] == 0.0) continue;
    std::uint64_t zeros = 0;
    constexpr std::uint32_t kShapes = 8;
    constexpr std::uint32_t kVersions = 8;
    for (std::uint32_t s = 0; s < kShapes; ++s) {
      const auto shape = static_cast<std::uint32_t>(rng());
      for (std::uint32_t v = 0; v < kVersions; ++v) {
        for (const auto b : generate_value(classes.of(line), line, shape, v)) zeros += (b == 0);
      }
    }
    expect += p[line] * static_cast<double>(zeros) / (kShapes * kVersions * kBlockBytes);
  }

  SampledTraceSource sampled(app, kRegion, kSeed);
  std::uint64_t zeros = 0;
  for (const auto& ev : drain(sampled, kEvents)) {
    for (const auto b : ev.data) zeros += (b == 0);
  }
  const double got = static_cast<double>(zeros) / (kEvents * kBlockBytes);
  EXPECT_NEAR(got, expect, 0.03) << "model " << expect << " sampled " << got;
}

TEST(SampledTraceSource, AddressesStayInRegion) {
  SampledTraceSource sampled(profile_by_name("lbm"), 1000, 3);
  for (const auto& ev : drain(sampled, 5000)) EXPECT_LT(ev.line, 1000u);
}

TEST(SampledTraceSource, ZipfSkewConcentratesWrites) {
  SampledTraceSource sampled(profile_by_name("gobmk"), 1 << 14, 9);  // theta 0.85
  std::vector<int> counts(1 << 14, 0);
  const int n = 50000;
  for (const auto& ev : drain(sampled, n)) ++counts[ev.line];
  // Top 1% of touched lines should absorb well over 1% of writes.
  std::vector<int> sorted;
  for (const int c : counts) {
    if (c > 0) sorted.push_back(c);
  }
  std::sort(sorted.rbegin(), sorted.rend());
  const std::size_t top = std::max<std::size_t>(1, sorted.size() / 100);
  int top_writes = 0;
  for (std::size_t i = 0; i < top; ++i) top_writes += sorted[i];
  EXPECT_GT(static_cast<double>(top_writes) / n, 0.05);
}

TEST(SampledTraceSource, DeterministicAcrossBatchSizesAndReset) {
  const AppProfile& app = profile_by_name("gcc");
  constexpr std::size_t kEvents = 5000;

  SampledTraceSource a(app, kRegion, kSeed);
  SampledTraceSource b(app, kRegion, kSeed);
  const auto ea = drain(a, kEvents, 256);
  const auto eb = drain(b, kEvents, 17);  // ragged batches: same stream
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].line, eb[i].line) << i;
    ASSERT_EQ(ea[i].data, eb[i].data) << i;
  }

  a.reset();
  EXPECT_EQ(a.events(), 0u);
  const auto again = drain(a, kEvents, 64);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].line, again[i].line) << i;
    ASSERT_EQ(ea[i].data, again[i].data) << i;
  }
  EXPECT_EQ(a.events(), kEvents);
}

void expect_same_stream(const std::vector<WritebackEvent>& a,
                        const std::vector<WritebackEvent>& b, const char* app) {
  ASSERT_EQ(a.size(), b.size()) << app;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].line, b[i].line) << app << " event " << i;
    ASSERT_EQ(a[i].data, b[i].data) << app << " event " << i;
  }
}

// A shared ZipfAliasTable is invisible in the stream: a source drawing from
// one (even while another source draws from it too, batch by batch) emits
// exactly the events of a source that built its own table.
TEST(SampledTraceSource, SharedAliasTableIsInvisible) {
  constexpr std::size_t kEvents = 6000;
  constexpr std::uint64_t kOtherSeed = kSeed + 1;
  for (const char* name : {"gcc", "milc", "lbm"}) {
    const AppProfile& app = profile_by_name(name);
    const auto table =
        std::make_shared<const ZipfAliasTable>(app.working_set_lines, app.zipf_theta);

    SampledTraceSource solo(app, kRegion, kSeed);
    SampledTraceSource other_solo(app, kRegion / 2, kOtherSeed);
    const auto expected = drain(solo, kEvents);
    const auto other_expected = drain(other_solo, kEvents);

    SampledTraceSource shared(app, kRegion, kSeed, table);
    expect_same_stream(drain(shared, kEvents), expected, name);

    // Two sources on one table, their batches interleaved (ragged sizes so
    // the tiles fall differently): each still matches its solo run.
    SampledTraceSource a(app, kRegion, kSeed, table);
    SampledTraceSource b(app, kRegion / 2, kOtherSeed, table);
    std::vector<WritebackEvent> ea(kEvents);
    std::vector<WritebackEvent> eb(kEvents);
    for (std::size_t done = 0; done < kEvents;) {
      const std::size_t na = std::min<std::size_t>(100, kEvents - done);
      const std::size_t nb = std::min<std::size_t>(37, na);
      (void)a.next_batch(std::span(ea.data() + done, na));
      (void)b.next_batch(std::span(eb.data() + done, nb));
      (void)b.next_batch(std::span(eb.data() + done + nb, na - nb));
      done += na;
    }
    expect_same_stream(ea, expected, name);
    expect_same_stream(eb, other_expected, name);
  }
}

TEST(SampledTraceSource, RejectsAliasTableOfTheWrongSize) {
  for (const char* name : {"gcc", "milc", "lbm"}) {
    const AppProfile& app = profile_by_name(name);
    const auto half =
        std::make_shared<const ZipfAliasTable>(app.working_set_lines / 2, app.zipf_theta);
    EXPECT_THROW(SampledTraceSource(app, kRegion, kSeed, half), ContractViolation) << name;
    EXPECT_THROW(SampledTraceSource(app, kRegion, kSeed, nullptr), ContractViolation) << name;
  }
}

TEST(SampledTraceSource, CurrentValueTracksLastEvent) {
  const AppProfile& app = profile_by_name("milc");
  SampledTraceSource sampled(app, kRegion, kSeed);
  std::vector<Block> last(kRegion);
  bool seen[kRegion] = {};
  for (const auto& ev : drain(sampled, 20000)) {
    last[ev.line] = ev.data;
    seen[ev.line] = true;
  }
  for (std::uint64_t line = 0; line < kRegion; ++line) {
    if (seen[line]) {
      EXPECT_EQ(sampled.current_value(line), last[line]) << "line " << line;
    } else {
      EXPECT_EQ(sampled.current_value(line), zero_block()) << "line " << line;
    }
  }
}

}  // namespace
}  // namespace pcmsim
