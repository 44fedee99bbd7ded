// Shared property tests over all hard-error schemes plus scheme-specific
// capability tests (ECP-6, SAFER-32, Aegis 17x31, SECDED).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "ecc/aegis.hpp"
#include "ecc/ecp.hpp"
#include "ecc/safer.hpp"
#include "ecc/secded.hpp"

namespace pcmsim {
namespace {

std::vector<FaultCell> random_faults(Rng& rng, std::size_t n, std::size_t window_bits) {
  std::vector<std::uint16_t> pos(window_bits);
  std::iota(pos.begin(), pos.end(), std::uint16_t{0});
  std::vector<FaultCell> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + rng.next_below(window_bits - i);
    std::swap(pos[i], pos[j]);
    out.push_back(FaultCell{pos[i], rng.next_bool(0.5)});
  }
  std::sort(out.begin(), out.end(),
            [](const FaultCell& a, const FaultCell& b) { return a.pos < b.pos; });
  return out;
}

std::vector<std::uint8_t> random_data(Rng& rng, std::size_t window_bits) {
  std::vector<std::uint8_t> d((window_bits + 7) / 8);
  for (auto& b : d) b = static_cast<std::uint8_t>(rng());
  if (window_bits % 8) d.back() &= static_cast<std::uint8_t>((1u << (window_bits % 8)) - 1);
  return d;
}

// ---------------------------------------------------------------------------
// Cross-scheme property: whenever encode() succeeds, the data survives the
// stuck cells bit-exactly through apply_faults + decode.
struct SchemeCase {
  std::string name;
  std::function<std::unique_ptr<HardErrorScheme>()> make;
  std::size_t window_bits;
  std::size_t max_faults;  // sweep up to here (may exceed guarantees)
};

class SchemeRecovery : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeRecovery, EncodedDataSurvivesStuckCells) {
  const auto& param = GetParam();
  const auto scheme = param.make();
  Rng rng(0xEC0DE + param.window_bits);
  int successes = 0;
  for (std::size_t nfaults = 0; nfaults <= param.max_faults; ++nfaults) {
    for (int iter = 0; iter < 40; ++iter) {
      const auto faults = random_faults(rng, nfaults, param.window_bits);
      const auto data = random_data(rng, param.window_bits);
      const auto enc = scheme->encode(data, param.window_bits, faults);
      EXPECT_EQ(enc.has_value(), scheme->can_tolerate(faults, param.window_bits));
      if (!enc) continue;
      ++successes;
      const auto stored = apply_faults(enc->image, param.window_bits, faults);
      const auto decoded = scheme->decode(stored, param.window_bits, enc->meta, faults);
      ASSERT_EQ(decoded, data) << param.name << " failed with " << nfaults << " faults";
    }
  }
  EXPECT_GT(successes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeRecovery,
    ::testing::Values(
        SchemeCase{"ecp6-512", [] { return std::make_unique<EcpScheme>(6); }, 512, 8},
        SchemeCase{"ecp6-128", [] { return std::make_unique<EcpScheme>(6); }, 128, 8},
        SchemeCase{"safer32-512", [] { return std::make_unique<SaferScheme>(32); }, 512, 16},
        SchemeCase{"safer32-200", [] { return std::make_unique<SaferScheme>(32); }, 200, 16},
        SchemeCase{"safer32-17", [] { return std::make_unique<SaferScheme>(32); }, 17, 10},
        SchemeCase{"aegis-512", [] { return std::make_unique<AegisScheme>(17, 31); }, 512, 20},
        SchemeCase{"aegis-100", [] { return std::make_unique<AegisScheme>(17, 31); }, 100, 16},
        SchemeCase{"secded-512", [] { return std::make_unique<SecdedScheme>(); }, 512, 8}),
    [](const ::testing::TestParamInfo<SchemeCase>& param_info) {
      std::string n = param_info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

// ---------------------------------------------------------------------------
// ECP specifics.
TEST(Ecp, MetadataFitsEccBudget) {
  EcpScheme ecp(6);
  EXPECT_LE(ecp.metadata_bits(), kEccBits);
  EXPECT_EQ(ecp.guaranteed_correctable(), 6u);
}

TEST(Ecp, ToleratesExactlySixFaults) {
  EcpScheme ecp(6);
  Rng rng(1);
  for (std::size_t n = 0; n <= 6; ++n) {
    EXPECT_TRUE(ecp.can_tolerate(random_faults(rng, n, 512), 512));
  }
  EXPECT_FALSE(ecp.can_tolerate(random_faults(rng, 7, 512), 512));
}

TEST(Ecp, WeakerVariantsHaveLowerCapability) {
  for (std::size_t n = 1; n <= 6; ++n) {
    EcpScheme ecp(n);
    EXPECT_EQ(ecp.guaranteed_correctable(), n);
    EXPECT_LE(ecp.metadata_bits(), kEccBits);
  }
}

// ---------------------------------------------------------------------------
// SAFER specifics.
TEST(Safer, MetadataFitsEccBudget) {
  SaferScheme safer(32);
  EXPECT_LE(safer.metadata_bits(), kEccBits);
  EXPECT_EQ(safer.guaranteed_correctable(), 6u);  // 5 fields + 1
}

TEST(Safer, SeparatesSixArbitraryFaultsDeterministically) {
  SaferScheme safer(32);
  Rng rng(2);
  for (int iter = 0; iter < 300; ++iter) {
    const auto faults = random_faults(rng, 6, 512);
    EXPECT_TRUE(safer.can_tolerate(faults, 512));
  }
}

TEST(Safer, ToleratesManyFaultsProbabilistically) {
  SaferScheme safer(32);
  Rng rng(3);
  int tolerated = 0;
  for (int iter = 0; iter < 200; ++iter) {
    if (safer.can_tolerate(random_faults(rng, 12, 512), 512)) ++tolerated;
  }
  // The greedy hardware algorithm separates 12 faults only sometimes —
  // "the chances of correcting more than 8 bit failures are very small".
  EXPECT_GT(tolerated, 3);
  EXPECT_LT(tolerated, 150);
}

TEST(Safer, ExhaustiveStrategyDominatesGreedy) {
  SaferScheme greedy(32, SaferScheme::Strategy::kGreedy);
  SaferScheme ideal(32, SaferScheme::Strategy::kExhaustive);
  Rng rng(14);
  int greedy_ok = 0;
  int ideal_ok = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const auto faults = random_faults(rng, 11, 512);
    const bool g = greedy.can_tolerate(faults, 512);
    const bool e = ideal.can_tolerate(faults, 512);
    EXPECT_TRUE(!g || e) << "greedy success implies an exhaustive selection exists";
    greedy_ok += g;
    ideal_ok += e;
  }
  EXPECT_GT(ideal_ok, greedy_ok);
}

TEST(Safer, NeverToleratesMoreThanPartitionCount) {
  SaferScheme safer(32);
  Rng rng(4);
  EXPECT_FALSE(safer.can_tolerate(random_faults(rng, 33, 512), 512));
}

TEST(Safer, AdjacentFaultsAreHardestToSeparate) {
  SaferScheme safer(32);
  // 7 faults in consecutive cells differ only in low address bits; finding a
  // separating 5-field selection must fail (pigeonhole on 3 low bits).
  std::vector<FaultCell> faults;
  for (std::uint16_t i = 0; i < 7; ++i) faults.push_back({i, false});
  // Positions 0..6 differ only within address bits 0..2: any 5-bit selection
  // containing those 3 bits maps them to at most 8 distinct groups — still
  // separable. Verify via the exhaustive search rather than asserting failure.
  const auto partition = safer.find_partitioning(faults, 512);
  ASSERT_TRUE(partition.has_value());
  EXPECT_TRUE(safer.can_tolerate(faults, 512));
  // 9 consecutive cells cannot fit in 8 groups formed by the 3 low bits
  // alone, but selections using bits 0..3 give 16 groups; verify capability
  // grows until the cluster exceeds 2^5 = 32 consecutive positions.
  faults.clear();
  for (std::uint16_t i = 0; i < 33; ++i) faults.push_back({i, false});
  EXPECT_FALSE(safer.can_tolerate(faults, 512));
}

// ---------------------------------------------------------------------------
// Aegis specifics.
TEST(Aegis, MetadataFitsEccBudget) {
  AegisScheme aegis(17, 31);
  EXPECT_LE(aegis.metadata_bits(), kEccBits);
  EXPECT_EQ(aegis.guaranteed_correctable(), 8u);  // C(8,2)=28 <= 31 directions
}

TEST(Aegis, GridMappingIsInjective) {
  AegisScheme aegis(17, 31);
  // CRT: (i mod 17, i mod 31) unique for i < 527; group ids within a
  // direction must tile the line into <= 31 groups of <= 17 cells.
  for (unsigned dir = 0; dir <= 31; ++dir) {
    std::vector<int> sizes(32, 0);
    for (std::size_t i = 0; i < 512; ++i) {
      const std::size_t g = aegis.group_of(i, dir);
      ASSERT_LT(g, dir == 31 ? 17u : 31u);
      ++sizes[g];
    }
    for (int s : sizes) EXPECT_LE(s, dir == 31 ? 31 : 17);
  }
}

TEST(Aegis, EightArbitraryFaultsAlwaysSeparable) {
  AegisScheme aegis(17, 31);
  Rng rng(5);
  for (int iter = 0; iter < 300; ++iter) {
    EXPECT_TRUE(aegis.can_tolerate(random_faults(rng, 8, 512), 512));
  }
}

TEST(Aegis, BeatsSaferOnLargeFaultCounts) {
  AegisScheme aegis(17, 31);
  SaferScheme safer(32);
  Rng rng(6);
  int aegis_ok = 0;
  int safer_ok = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const auto faults = random_faults(rng, 16, 512);
    if (aegis.can_tolerate(faults, 512)) ++aegis_ok;
    if (safer.can_tolerate(faults, 512)) ++safer_ok;
  }
  EXPECT_GT(aegis_ok, safer_ok);  // the paper's Fig 9 ordering
}

// ---------------------------------------------------------------------------
// SECDED specifics.
TEST(Secded, CheckBitsDetectAndCorrectSingleError) {
  SecdedScheme s;
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t word = rng();
    const std::uint8_t check = s.compute_check(word);
    // No error.
    auto ok = s.correct(word, check);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->word, word);
    // Single data-bit error.
    const unsigned bit = static_cast<unsigned>(rng.next_below(64));
    auto fixed = s.correct(word ^ (1ull << bit), check);
    ASSERT_TRUE(fixed.has_value());
    EXPECT_EQ(fixed->word, word);
    EXPECT_TRUE(fixed->corrected_data_bit);
  }
}

TEST(Secded, DoubleErrorsAreDetectedNotMiscorrected) {
  SecdedScheme s;
  Rng rng(8);
  int detected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t word = rng();
    const std::uint8_t check = s.compute_check(word);
    unsigned b1 = static_cast<unsigned>(rng.next_below(64));
    unsigned b2 = static_cast<unsigned>(rng.next_below(64));
    if (b1 == b2) continue;
    const auto r = s.correct(word ^ (1ull << b1) ^ (1ull << b2), check);
    // Hsiao odd-weight columns: double errors give even-weight syndromes,
    // which never match a data column -> uncorrectable (detected).
    EXPECT_FALSE(r.has_value());
    ++detected;
  }
  EXPECT_GT(detected, 400);
}

TEST(Secded, ToleratesOneFaultPerWordOnly) {
  SecdedScheme s;
  std::vector<FaultCell> one_per_word;
  for (std::uint16_t w = 0; w < 8; ++w) one_per_word.push_back({static_cast<std::uint16_t>(w * 64 + 5), false});
  EXPECT_TRUE(s.can_tolerate(one_per_word, 512));
  one_per_word.push_back({6, true});  // second fault in word 0
  EXPECT_FALSE(s.can_tolerate(one_per_word, 512));
}

}  // namespace
}  // namespace pcmsim
