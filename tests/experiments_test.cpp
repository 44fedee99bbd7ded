#include <gtest/gtest.h>

#include "sim/experiments.hpp"

namespace pcmsim {
namespace {

TEST(ExperimentScale, FlagsResolveToDistinctScales) {
  const auto dflt = ExperimentScale::from_flag("default");
  const auto fast = ExperimentScale::from_flag("fast");
  const auto paper = ExperimentScale::from_flag("paper");
  EXPECT_LT(fast.endurance_mean, dflt.endurance_mean);
  EXPECT_LT(dflt.endurance_mean, paper.endurance_mean);
  EXPECT_LT(fast.physical_lines, paper.physical_lines);
  EXPECT_DOUBLE_EQ(dflt.endurance_cov, 0.15);
}

TEST(Experiments, AppNamesMatchProfiles) {
  const auto names = all_app_names();
  EXPECT_EQ(names.size(), 15u);
  EXPECT_EQ(names.front(), "GemsFDTD");
  EXPECT_EQ(names.back(), "cactusADM");
  for (const auto& n : names) EXPECT_NO_THROW((void)profile_by_name(n));
}

TEST(Experiments, MatrixRunsAndIndexes) {
  ExperimentScale tiny;
  tiny.endurance_mean = 60;
  tiny.physical_lines = 96;
  const auto cells = run_lifetime_matrix({"milc", "lbm"},
                                         {SystemMode::kBaseline, SystemMode::kCompWF}, tiny);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& c : cells) {
    EXPECT_TRUE(c.result.reached_failure) << c.app;
    EXPECT_GT(c.result.writes_to_failure, 0u);
  }
  const auto& wf = matrix_cell(cells, "milc", SystemMode::kCompWF);
  EXPECT_EQ(wf.app, "milc");
  EXPECT_EQ(wf.mode, SystemMode::kCompWF);
  EXPECT_THROW((void)matrix_cell(cells, "gcc", SystemMode::kComp), ContractViolation);
}

TEST(Lifetime, FinalFailureCheckCatchesDeathAtWriteCap) {
  // A failure landing between the last check_interval boundary and the
  // max_writes cap must still be reported. Reproduce: find the failure point
  // with normal polling, then rerun capped exactly there with a poll interval
  // too large to ever fire — only the final check can set reached_failure.
  LifetimeConfig lc;
  lc.system.device.lines = 96;
  lc.system.device.endurance_mean = 60;
  const auto first = run_lifetime(profile_by_name("milc"), lc, 11);
  ASSERT_TRUE(first.reached_failure);

  LifetimeConfig capped = lc;
  capped.max_writes = first.writes_to_failure;
  capped.check_interval = first.writes_to_failure + 1;  // never polls mid-run
  const auto second = run_lifetime(profile_by_name("milc"), capped, 11);
  EXPECT_EQ(second.writes_to_failure, first.writes_to_failure);
  EXPECT_TRUE(second.reached_failure);
}

TEST(Lifetime, ZeroCheckIntervalIsAContractViolation) {
  // The failure poll runs `offered % check_interval`; an interval of 0 must
  // be a typed error, not an integer division by zero.
  LifetimeConfig lc;
  lc.system.device.lines = 96;
  lc.system.device.endurance_mean = 60;
  lc.check_interval = 0;
  EXPECT_THROW((void)run_lifetime(profile_by_name("milc"), lc, 11), ContractViolation);
}

TEST(Experiments, MatrixIsDeterministicForFixedSeed) {
  ExperimentScale tiny;
  tiny.endurance_mean = 60;
  tiny.physical_lines = 96;
  tiny.seed = 5;
  const auto a = run_lifetime_matrix({"milc"}, {SystemMode::kBaseline}, tiny);
  const auto b = run_lifetime_matrix({"milc"}, {SystemMode::kBaseline}, tiny);
  EXPECT_EQ(a[0].result.writes_to_failure, b[0].result.writes_to_failure);
}

}  // namespace
}  // namespace pcmsim
