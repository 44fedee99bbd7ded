// Integration tests of PcmSystem: end-to-end data integrity in functional-
// verify mode, mode-specific behaviours (sliding, rotation, recycling), and
// wear-out ordering between the paper's four configurations.
#include <gtest/gtest.h>

#include <map>

#include "core/system.hpp"
#include "sim/lifetime.hpp"
#include "trace/sampled_source.hpp"

namespace pcmsim {
namespace {

SystemConfig small_config(SystemMode mode, double endurance = 300.0) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.device.lines = 64;
  cfg.device.endurance_mean = endurance;
  cfg.device.endurance_cov = 0.15;
  cfg.device.seed = 11;
  cfg.banks = 4;
  cfg.gap_interval = 20;
  cfg.seed = 11;
  return cfg;
}

TEST(System, FunctionalReadBackMatchesWrites) {
  auto cfg = small_config(SystemMode::kCompWF, /*endurance=*/1e4);
  cfg.functional_verify = true;
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("gcc");
  SampledTraceSource source(app, sys.logical_lines(), 42);
  TraceCursor gen(source);

  std::map<LineAddr, Block> expected;
  for (int i = 0; i < 3000; ++i) {
    const auto ev = gen.next();
    const auto out = sys.write(ev.line, ev.data);
    ASSERT_TRUE(out.stored);
    expected[ev.line] = ev.data;
  }
  for (const auto& [line, data] : expected) {
    EXPECT_EQ(sys.read(line), data);
  }
}

TEST(System, FunctionalReadBackSurvivesWearOut) {
  // Low endurance: cells die during the run, and the ECP path plus window
  // sliding must keep every stored line recoverable bit-exactly.
  auto cfg = small_config(SystemMode::kCompWF, /*endurance=*/60.0);
  cfg.functional_verify = true;
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("milc");
  SampledTraceSource source(app, sys.logical_lines(), 7);
  TraceCursor gen(source);

  std::map<LineAddr, Block> expected;
  for (int i = 0; i < 20000 && !sys.failed(); ++i) {
    const auto ev = gen.next();
    const auto out = sys.write(ev.line, ev.data);
    if (out.stored) {
      expected[ev.line] = ev.data;
    } else {
      expected.erase(ev.line);  // data loss event; line is dead
    }
    // Gap moves may kill migrating lines; drop entries that died.
    for (auto it = expected.begin(); it != expected.end();) {
      if (sys.line_meta(sys.physical_of(it->first)).dead ||
          !sys.line_meta(sys.physical_of(it->first)).ever_written) {
        it = expected.erase(it);
      } else {
        ++it;
      }
    }
  }
  ASSERT_GT(sys.array().total_faults(), 0u) << "test requires real wear-out";
  for (const auto& [line, data] : expected) {
    EXPECT_EQ(sys.read(line), data);
  }
}

TEST(System, BaselineNeverCompresses) {
  PcmSystem sys(small_config(SystemMode::kBaseline, 1e4));
  const auto& app = profile_by_name("zeusmp");  // highly compressible
  SampledTraceSource source(app, sys.logical_lines(), 1);
  TraceCursor gen(source);
  for (int i = 0; i < 500; ++i) {
    const auto ev = gen.next();
    const auto out = sys.write(ev.line, ev.data);
    EXPECT_FALSE(out.compressed);
    EXPECT_EQ(out.size_bytes, 64);
  }
  EXPECT_EQ(sys.stats().compressed_writes, 0u);
}

TEST(System, CompStoresCompressibleDataCompressed) {
  PcmSystem sys(small_config(SystemMode::kComp, 1e4));
  const auto& app = profile_by_name("zeusmp");
  SampledTraceSource source(app, sys.logical_lines(), 1);
  TraceCursor gen(source);
  for (int i = 0; i < 500; ++i) {
    const auto ev = gen.next();
    (void)sys.write(ev.line, ev.data);
  }
  const auto& st = sys.stats();
  EXPECT_GT(st.compressed_writes, st.uncompressed_writes * 5);
  EXPECT_LT(st.compressed_size.mean(), 10.0);  // zeusmp CR ~0.05
}

TEST(System, CompWindowsSitAtLsbWithoutRotation) {
  PcmSystem sys(small_config(SystemMode::kComp, 1e4));
  const auto& app = profile_by_name("milc");
  SampledTraceSource source(app, sys.logical_lines(), 2);
  TraceCursor gen(source);
  for (int i = 0; i < 300; ++i) {
    const auto ev = gen.next();
    const auto out = sys.write(ev.line, ev.data);
    if (out.compressed) {
      EXPECT_EQ(out.start_byte, 0) << "naive Comp maps windows to LSB";
    }
  }
}

TEST(System, RotationMovesWindowStarts) {
  auto cfg = small_config(SystemMode::kCompW, 1e4);
  cfg.rotation_threshold = 50;
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("milc");
  SampledTraceSource source(app, sys.logical_lines(), 2);
  TraceCursor gen(source);
  std::set<unsigned> starts;
  for (int i = 0; i < 4000; ++i) {
    const auto ev = gen.next();
    const auto out = sys.write(ev.line, ev.data);
    if (out.compressed) starts.insert(out.start_byte);
  }
  EXPECT_GT(starts.size(), 8u) << "intra-line WL must spread window starts";
}

TEST(System, HeuristicStoresVolatileLinesUncompressed) {
  auto cfg = small_config(SystemMode::kCompWF, 1e4);
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("bzip2");  // high size volatility
  SampledTraceSource source(app, sys.logical_lines(), 3);
  TraceCursor gen(source);
  for (int i = 0; i < 5000; ++i) {
    const auto ev = gen.next();
    (void)sys.write(ev.line, ev.data);
  }
  EXPECT_GT(sys.stats().uncompressed_writes, 100u)
      << "Fig 8 heuristic must divert some volatile writes";
}

TEST(System, DeadLinesRecycleUnderCompWF) {
  auto cfg = small_config(SystemMode::kCompWF, /*endurance=*/40.0);
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("milc");
  SampledTraceSource source(app, sys.logical_lines(), 5);
  TraceCursor gen(source);
  for (int i = 0; i < 60000 && !sys.failed(); ++i) {
    const auto ev = gen.next();
    (void)sys.write(ev.line, ev.data);
  }
  EXPECT_GT(sys.stats().uncorrectable_events, 0u);
  EXPECT_GT(sys.stats().recycled_lines, 0u) << "Comp+WF revives dead blocks";
}

TEST(System, WearOutKillsTheSystemEventually) {
  auto cfg = small_config(SystemMode::kBaseline, /*endurance=*/30.0);
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("lbm");
  SampledTraceSource source(app, sys.logical_lines(), 6);
  TraceCursor gen(source);
  std::uint64_t writes = 0;
  while (!sys.failed() && writes < 2'000'000) {
    const auto ev = gen.next();
    (void)sys.write(ev.line, ev.data);
    ++writes;
  }
  EXPECT_TRUE(sys.failed());
  EXPECT_GE(sys.dead_fraction(), 0.5);
}

TEST(System, TolerableFaultsExceedSchemeCapabilityUnderCompWF) {
  auto cfg = small_config(SystemMode::kCompWF, /*endurance=*/40.0);
  PcmSystem sys(cfg);
  const auto& app = profile_by_name("cactusADM");  // tiny windows dodge faults
  SampledTraceSource source(app, sys.logical_lines(), 8);
  TraceCursor gen(source);
  for (int i = 0; i < 80000 && !sys.failed(); ++i) {
    const auto ev = gen.next();
    (void)sys.write(ev.line, ev.data);
  }
  // Lines must have died with far more faults than ECP-6's nominal strength.
  ASSERT_GT(sys.stats().faults_at_death.count(), 0u);
  EXPECT_GT(sys.stats().faults_at_death.mean(), 6.0);
}

TEST(Lifetime, CompWFOutlivesBaselineOnCompressibleWorkload) {
  LifetimeConfig lc;
  lc.system = small_config(SystemMode::kBaseline, 200.0);
  lc.system.device.lines = 256;
  lc.max_writes = 20'000'000;
  const auto& app = profile_by_name("milc");
  const auto base = run_lifetime(app, lc, 99);
  ASSERT_TRUE(base.reached_failure);

  lc.system.mode = SystemMode::kCompWF;
  const auto wf = run_lifetime(app, lc, 99);
  ASSERT_TRUE(wf.reached_failure);
  EXPECT_GT(wf.writes_to_failure, base.writes_to_failure * 2)
      << "Comp+WF must clearly outlive Baseline on milc";
}

TEST(Lifetime, MonthsModelScalesWithEnduranceAndRegion) {
  LifetimeConfig lc;
  lc.system = small_config(SystemMode::kBaseline, 100.0);
  LifetimeResult r;
  r.writes_to_failure = 1'000'000;
  const auto& app = profile_by_name("astar");
  const double months = lifetime_months(r, lc, app);
  EXPECT_GT(months, 0.0);

  LifetimeConfig lc2 = lc;
  lc2.system.device.endurance_mean = 200.0;  // same sim writes, 2x endurance scale
  EXPECT_NEAR(lifetime_months(r, lc2, app), months / 2.0, months * 1e-9);

  LifetimeConfig lc3 = lc;
  lc3.system.device.lines = lc.system.device.lines * 2;
  EXPECT_NEAR(lifetime_months(r, lc3, app), months / 2.0, months * 1e-9);
}

}  // namespace
}  // namespace pcmsim
