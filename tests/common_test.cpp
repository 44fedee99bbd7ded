#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/zipf.hpp"

namespace pcmsim {
namespace {

// ---------------------------------------------------------------- RNG
TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(124);
  EXPECT_NE(a(), c());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_THROW((void)rng.next_below(0), ContractViolation);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 600);
    EXPECT_LT(c, n / 10 + 600);
  }
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(13);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(rng.next_normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMatchesMeanAndCov) {
  Rng rng(17);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(rng.next_lognormal_mean_cov(1000.0, 0.15));
  EXPECT_NEAR(s.mean(), 1000.0, 5.0);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.15, 0.01);
  EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, LognormalZeroCovIsDegenerate) {
  Rng rng(19);
  EXPECT_DOUBLE_EQ(rng.next_lognormal_mean_cov(42.0, 0.0), 42.0);
}

// ---------------------------------------------------------------- Zipf
TEST(Zipf, PmfDecreasesWithRank) {
  ZipfSampler z(100, 0.8);
  for (std::uint64_t k = 1; k < 100; ++k) EXPECT_GE(z.pmf(k - 1), z.pmf(k));
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler z(50, 0.0);
  for (std::uint64_t k = 0; k < 50; ++k) EXPECT_NEAR(z.pmf(k), 1.0 / 50, 1e-12);
}

TEST(Zipf, HigherThetaConcentratesMass) {
  Rng rng(3);
  ZipfSampler flat(1000, 0.2);
  ZipfSampler steep(1000, 1.2);
  int flat_top = 0;
  int steep_top = 0;
  for (int i = 0; i < 20000; ++i) {
    flat_top += flat.sample(rng) < 10 ? 1 : 0;
    steep_top += steep.sample(rng) < 10 ? 1 : 0;
  }
  EXPECT_GT(steep_top, flat_top * 3);
}

TEST(Zipf, SamplesCoverUniverse) {
  Rng rng(5);
  ZipfSampler z(8, 0.5);
  bool seen[8] = {};
  for (int i = 0; i < 5000; ++i) seen[z.sample(rng)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---------------------------------------------------------------- Stats
TEST(RunningStat, MatchesClosedForm) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, MergeEqualsSingleAccumulator) {
  Rng rng(9);
  RunningStat whole;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(EmpiricalCdf, QuantilesInterpolate) {
  EmpiricalCdf c;
  for (double x : {10.0, 20.0, 30.0, 40.0}) c.add(x);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(c.at(20.0), 0.5);
  EXPECT_DOUBLE_EQ(c.at(9.0), 0.0);
  EXPECT_DOUBLE_EQ(c.at(45.0), 1.0);
}

// ---------------------------------------------------------------- types.hpp
TEST(Bits, HammingDistanceCountsDifferences) {
  Block a{};
  Block b{};
  EXPECT_EQ(hamming_distance(a, b), 0u);
  b[0] = 0xFF;
  b[63] = 0x0F;
  EXPECT_EQ(hamming_distance(a, b), 12u);
}

TEST(Bits, GetSetBitRoundTrips) {
  std::vector<std::uint8_t> buf(8, 0);
  for (std::size_t i : {0u, 1u, 7u, 8u, 35u, 63u}) {
    set_bit(buf, i, true);
    EXPECT_TRUE(get_bit(buf, i));
    set_bit(buf, i, false);
    EXPECT_FALSE(get_bit(buf, i));
  }
}

TEST(Bits, LoadStoreLittleEndian) {
  std::vector<std::uint8_t> buf(16, 0);
  store_le<std::uint32_t>(buf, 4, 0xA1B2C3D4u);
  EXPECT_EQ(buf[4], 0xD4);
  EXPECT_EQ(buf[7], 0xA1);
  EXPECT_EQ(load_le<std::uint32_t>(buf, 4), 0xA1B2C3D4u);
}

// ---------------------------------------------------------------- table/CLI
TEST(Table, RendersAlignedAndCsv) {
  TablePrinter t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os, "T");
  EXPECT_NE(os.str().find("| a | bb |"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,bb\n1,2\n");
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--csv", "--writes", "100", "--rate=0.5", "--name", "milc"};
  CliArgs args(7, argv, {"csv", "writes", "rate", "name", "absent"});
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_EQ(args.get_int("writes", 0), 100);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 0.5);
  EXPECT_EQ(args.get("name", ""), "milc");
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_FALSE(args.get_bool("absent"));
}

TEST(Cli, RejectsStrayPositionals) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliArgs(2, argv, {}), std::invalid_argument);
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, RejectsUndeclaredFlagByName) {
  // A near miss of a declared flag (--tenant for --tenants) must not fall
  // back to the default silently.
  const char* argv[] = {"prog", "--tenant", "4"};
  const std::string msg =
      invalid_argument_message([&] { CliArgs args(3, argv, {"tenants", "events"}); });
  EXPECT_NE(msg.find("--tenant "), std::string::npos) << msg;
  EXPECT_NE(msg.find("--tenants"), std::string::npos) << msg;  // lists what is accepted

  const char* eq_form[] = {"prog", "--source=legacy"};
  EXPECT_THROW(CliArgs(2, eq_form, {"trace"}), std::invalid_argument);
}

TEST(Cli, NumericGettersConsumeTheWholeValue) {
  const char* argv[] = {"prog", "--events", "12abc", "--rate", "0.5x", "--n", "abc",
                        "--big", "99999999999999999999", "--empty="};
  const CliArgs args(10, argv, {"events", "rate", "n", "big", "empty"});
  for (const char* key : {"events", "n", "big", "empty"}) {
    const std::string msg = invalid_argument_message([&] { (void)args.get_int(key, 0); });
    EXPECT_NE(msg.find(std::string("--") + key), std::string::npos) << key << ": " << msg;
  }
  const std::string msg = invalid_argument_message([&] { (void)args.get_double("rate", 0); });
  EXPECT_NE(msg.find("--rate"), std::string::npos) << msg;
}

TEST(Cli, UnsignedGetterRejectsJunkAndSigns) {
  // A checksum past INT64_MAX parses; a junk suffix or a sign fails the run
  // with exit status 2 and an error naming the flag, instead of wrapping.
  const char* argv[] = {"prog", "--expect_checksum", "17292867332767202293junk", "--neg", "-3",
                        "--plus=+3", "--big", "17292867332767202293"};
  const CliArgs args(8, argv, {"expect_checksum", "neg", "plus", "big"});
  EXPECT_EQ(args.get_uint("big", 0), 17292867332767202293ull);
  for (const char* key : {"expect_checksum", "neg", "plus"}) {
    try {
      (void)args.get_uint(key, 0);
      ADD_FAILURE() << key << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key), std::string::npos)
          << e.what();
      EXPECT_EQ(cli_error(e), 2);
    }
  }
  // List items (front_tier --tier-kbs 8,16) go through the same parse.
  EXPECT_EQ(parse_uint("tier-kbs", "16"), 16u);
  for (const char* item : {"16kb", "-8", ""}) {
    const std::string msg = invalid_argument_message([&] { (void)parse_uint("tier-kbs", item); });
    EXPECT_NE(msg.find("--tier-kbs"), std::string::npos) << item << ": " << msg;
  }
}

TEST(Cli, ChecksumGateRejectsSignsAndReportsMismatches) {
  // A negative checksum is a parse error (exit 2), never a disabled gate.
  const char* neg[] = {"prog", "--expect_checksum", "-1"};
  const CliArgs neg_args(3, neg, {"expect_checksum"});
  try {
    (void)check_expected_checksum(neg_args, 1, "changed");
    ADD_FAILURE() << "-1 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--expect_checksum"), std::string::npos) << e.what();
    EXPECT_EQ(cli_error(e), 2);
  }

  const char* pinned[] = {"prog", "--expect_checksum", "17292867332767202293"};
  const CliArgs args(3, pinned, {"expect_checksum"});
  EXPECT_EQ(check_expected_checksum(args, 17292867332767202293ull, "changed"), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(check_expected_checksum(args, 188248, "the write path changed"), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("expected 17292867332767202293, got 188248"), std::string::npos) << err;
  EXPECT_NE(err.find("the write path changed"), std::string::npos) << err;

  const char* absent[] = {"prog"};
  EXPECT_EQ(check_expected_checksum(CliArgs(1, absent, {"expect_checksum"}), 1, "changed"), 0);
}

TEST(Cli, ListGetterSplitsOnCommasAndRejectsEmptyItems) {
  const char* argv[] = {"prog", "--apps", "milc,gcc", "--one=lbm", "--trailing", "milc,",
                        "--double=a,,b", "--leading", ",milc", "--empty="};
  const CliArgs args(10, argv, {"apps", "one", "trailing", "double", "leading", "empty", "absent"});
  EXPECT_EQ(args.get_list("apps", {}), (std::vector<std::string>{"milc", "gcc"}));
  EXPECT_EQ(args.get_list("one", {}), (std::vector<std::string>{"lbm"}));
  EXPECT_EQ(args.get_list("absent", {"x", "y"}), (std::vector<std::string>{"x", "y"}));
  for (const char* key : {"trailing", "double", "leading", "empty"}) {
    const std::string msg = invalid_argument_message([&] { (void)args.get_list(key, {}); });
    EXPECT_NE(msg.find(std::string("--") + key), std::string::npos) << key << ": " << msg;
  }
}

TEST(Cli, ParsesSignedAndScientificNumbers) {
  const char* argv[] = {"prog", "--threads", "-1", "--endurance", "1e7", "--cov=.25"};
  const CliArgs args(6, argv, {"threads", "endurance", "cov"});
  EXPECT_EQ(args.get_int("threads", 0), -1);
  EXPECT_DOUBLE_EQ(args.get_double("endurance", 0), 1e7);
  EXPECT_DOUBLE_EQ(args.get_double("cov", 0), 0.25);
}

TEST(Cli, BoolFlagsRejectUnknownValues) {
  const char* argv[] = {"prog", "--csv", "out.csv", "--fast=0", "--profile", "true"};
  const CliArgs args(6, argv, {"csv", "fast", "profile"});
  EXPECT_FALSE(args.get_bool("fast", true));
  EXPECT_TRUE(args.get_bool("profile"));
  const std::string msg = invalid_argument_message([&] { (void)args.get_bool("csv"); });
  EXPECT_NE(msg.find("--csv"), std::string::npos) << msg;
}

TEST(Cli, ReadingAnUndeclaredFlagIsAProgrammingError) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv, {"writes"});
  EXPECT_THROW((void)args.get_int("wirtes", 0), std::logic_error);
  EXPECT_THROW((void)args.has("wirtes"), std::logic_error);
}

}  // namespace
}  // namespace pcmsim
