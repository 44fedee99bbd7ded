// The ECC registry's contracts: every registered spec round-trips through
// make_scheme with a name/traits snapshot that matches the constructed
// scheme, the parameterized grammar accepts/rejects what it documents, every
// scheme's max_tolerable() is an honest bound, and every scheme (old families
// and the BCH-t / coset extensions alike) survives a randomized encode ->
// stuck-cells -> decode property sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ecc/aegis.hpp"
#include "ecc/bch.hpp"
#include "ecc/coset.hpp"
#include "ecc/registry.hpp"

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
  return d;
}

// ---------------------------------------------------------------------------
// Registry round-trip: the static table is an honest snapshot of the schemes.

TEST(Registry, EveryRegisteredSpecConstructsAndMatchesItsSnapshot) {
  const auto schemes = registered_schemes();
  ASSERT_GE(schemes.size(), 7u);
  for (const auto& info : schemes) {
    SCOPED_TRACE(std::string(info.spec));
    EXPECT_TRUE(is_scheme_spec(info.spec));
    const auto scheme = make_scheme(info.spec);
    EXPECT_EQ(scheme->name(), info.name);
    EXPECT_EQ(scheme->traits(), info.traits);
    // The traits snapshot must agree with the scheme's own virtuals.
    EXPECT_EQ(info.traits.metadata_bits, scheme->metadata_bits());
    EXPECT_EQ(info.traits.guaranteed_correctable, scheme->guaranteed_correctable());
    EXPECT_EQ(info.traits.max_tolerable, scheme->max_tolerable());
    EXPECT_GE(info.traits.max_tolerable, info.traits.guaranteed_correctable);
    // find_scheme_info resolves canonical specs to the same entry.
    const auto* found = find_scheme_info(info.spec);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, info.name);
    // scheme_traits answers from the table without construction.
    EXPECT_EQ(scheme_traits(info.spec), info.traits);
  }
}

TEST(Registry, ParameterizedSpecsOutsideTheCanonicalListParse) {
  for (const char* spec : {"ecp1", "ecp3", "ecp9", "safer16", "safer32-ideal",
                           "aegis19x29", "bch-t1", "bch-t4", "coset-w8"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(is_scheme_spec(spec));
    EXPECT_NE(make_scheme(spec), nullptr);
    EXPECT_EQ(find_scheme_info(spec), nullptr) << "not a canonical entry";
  }
}

TEST(Registry, MalformedOrOutOfRangeSpecsAreRejected) {
  // safer64 is grammar-valid but unconstructible: 64 partitions blow the
  // 64-bit metadata budget, so the registry reports it as not-a-spec too.
  for (const char* spec : {"", "ecp", "ecp0", "ecp13", "ecp6x", "safer0", "safer31",
                           "safer64", "aegis17", "aegis0x31", "bch", "bch-t0", "bch-t7",
                           "coset-w5", "coset-w0", "hamming", "ECP6"}) {
    SCOPED_TRACE(spec);
    EXPECT_FALSE(is_scheme_spec(spec));
    EXPECT_THROW((void)make_scheme(spec), ContractViolation);
  }
}

TEST(Registry, AegisGridsPastTheMetadataWordAreRejected) {
  // Vertical-direction flip bits (one per row) would shift past bit 63:
  // 61x29 needs 6 + 61 = 67 bits, 59x9 needs 65.
  for (const char* spec : {"aegis61x29", "aegis59x9"}) {
    SCOPED_TRACE(spec);
    EXPECT_FALSE(is_scheme_spec(spec));
    EXPECT_THROW((void)make_scheme(spec), ContractViolation);
  }
}

TEST(Registry, AegisAtTheMetadataWordEdgeRoundTripsThroughTheVerticalDirection) {
  // 58x9 fills all 64 bits. Past 9 faults no slope direction (9 groups) can
  // separate them, so encode must use the 58-group vertical direction, whose
  // top flip bit is bit 63.
  const AegisScheme aegis(58, 9);
  EXPECT_EQ(aegis.metadata_bits(), 64u);
  EXPECT_EQ(make_scheme("aegis58x9")->metadata_bits(), 64u);
  Rng rng(58);
  int vertical = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const auto faults = random_faults(rng, 12, kBlockBits);
    const auto dir = aegis.find_direction(faults);
    if (!dir) continue;
    ASSERT_EQ(*dir, 9u) << "12 faults cannot be separated by 9 groups";
    ++vertical;
    const auto data = random_data(rng, kBlockBits);
    const auto enc = aegis.encode(data, kBlockBits, faults);
    ASSERT_TRUE(enc.has_value());
    const auto stored = apply_faults(enc->image, kBlockBits, faults);
    ASSERT_EQ(aegis.decode(stored, kBlockBits, enc->meta, faults), data);
  }
  EXPECT_GT(vertical, 0);
}

TEST(Registry, MaxTolerableMatchesEachFamilysStructure) {
  EXPECT_EQ(make_scheme("ecp3")->max_tolerable(), 3u);      // one entry per fault
  EXPECT_EQ(make_scheme("bch-t4")->max_tolerable(), 8u);    // 2t erasures
  EXPECT_EQ(make_scheme("safer16")->max_tolerable(), 16u);  // one fault per group
  EXPECT_EQ(make_scheme("aegis19x29")->max_tolerable(), 29u);  // most groups
  EXPECT_EQ(make_scheme("secded")->max_tolerable(), 8u);    // one per 64-bit word
  EXPECT_EQ(make_scheme("coset-w8")->max_tolerable(), kBlockBits);  // slack is free
}

// ---------------------------------------------------------------------------
// Trait honesty: no pattern of more than max_tolerable() faults may pass the
// scheme's own check, at any window size the scheme accepts. Placement
// rejects such windows from their fault count alone, so a bound that is too
// low would silently change which windows fit. Content-aware checks get
// random per-cell content sizes (line schemes ignore them).

TEST(Registry, NoPatternAboveMaxTolerablePasses) {
  constexpr std::size_t kWindowBytes[] = {8, 17, 32, 64};
  Rng rng(0xB0B0);
  for (const auto& info : registered_schemes()) {
    SCOPED_TRACE(std::string(info.spec));
    const auto scheme = make_scheme(info.spec);
    const std::size_t bound = scheme->max_tolerable();
    std::size_t checked = 0;
    for (const std::size_t bytes : kWindowBytes) {
      // Whole-line codes (SECDED, coset) only accept the full line.
      if (!info.traits.composes_with_window && bytes != kBlockBytes) continue;
      const std::size_t window_bits = bytes * 8;
      for (std::size_t n = bound + 1; n <= bound + 8 && n <= window_bits; ++n) {
        for (int iter = 0; iter < 40; ++iter) {
          const auto faults = random_faults(rng, n, window_bits);
          std::vector<std::uint8_t> content(kBlockBits / 32);
          for (auto& c : content) c = static_cast<std::uint8_t>(3 + rng.next_below(30));
          ASSERT_FALSE(scheme->can_tolerate(faults, window_bits))
              << n << " faults in " << bytes << " B";
          ASSERT_FALSE(scheme->can_tolerate_with(faults, window_bits, content))
              << n << " faults in " << bytes << " B with random content";
          ++checked;
        }
      }
    }
    // A bounded scheme must have been probed; only an unbounded one (coset:
    // max_tolerable() == kBlockBits) has no count above its bound to try.
    EXPECT_EQ(checked == 0, bound >= kBlockBits);
  }
}

// ---------------------------------------------------------------------------
// Cross-registry property: up to guaranteed_correctable() faults, encode must
// succeed and the data must survive the stuck cells bit-exactly; past the
// guarantee, encode may refuse, but whenever it accepts the round-trip must
// still be exact (no silent corruption, ever).

class RegisteredSchemeRecovery : public ::testing::TestWithParam<std::string> {};

TEST_P(RegisteredSchemeRecovery, GuaranteedFaultsAlwaysRoundTrip) {
  const auto scheme = make_scheme(GetParam());
  Rng rng(0x5EC + scheme->metadata_bits());
  const std::size_t guaranteed = scheme->guaranteed_correctable();
  for (std::size_t nfaults = 0; nfaults <= guaranteed; ++nfaults) {
    for (int iter = 0; iter < 30; ++iter) {
      const auto faults = random_faults(rng, nfaults, kBlockBits);
      const auto data = random_data(rng, kBlockBits);
      EXPECT_TRUE(scheme->can_tolerate(faults, kBlockBits));
      const auto enc = scheme->encode(data, kBlockBits, faults);
      ASSERT_TRUE(enc.has_value())
          << GetParam() << " refused " << nfaults << " <= guaranteed faults";
      const auto stored = apply_faults(enc->image, kBlockBits, faults);
      const auto decoded = scheme->decode(stored, kBlockBits, enc->meta, faults);
      ASSERT_EQ(decoded, data) << GetParam() << " with " << nfaults << " faults";
    }
  }
}

TEST_P(RegisteredSchemeRecovery, PastGuaranteeIsRefusedOrStillExact) {
  const auto scheme = make_scheme(GetParam());
  Rng rng(0xFA17 + scheme->metadata_bits());
  const std::size_t guaranteed = scheme->guaranteed_correctable();
  int refused = 0;
  int exact = 0;
  for (std::size_t nfaults = guaranteed + 1; nfaults <= guaranteed + 4; ++nfaults) {
    for (int iter = 0; iter < 30; ++iter) {
      const auto faults = random_faults(rng, nfaults, kBlockBits);
      const auto data = random_data(rng, kBlockBits);
      const auto enc = scheme->encode(data, kBlockBits, faults);
      // encode may only be *stronger* than the data-independent check (the
      // coset scheme accepts extra faults that land in compression slack).
      EXPECT_TRUE(!scheme->can_tolerate(faults, kBlockBits) || enc.has_value());
      if (!enc) {
        ++refused;
        continue;
      }
      const auto stored = apply_faults(enc->image, kBlockBits, faults);
      ASSERT_EQ(scheme->decode(stored, kBlockBits, enc->meta, faults), data);
      ++exact;
    }
  }
  EXPECT_GT(refused + exact, 0);
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, RegisteredSchemeRecovery,
                         ::testing::Values("ecp6", "ecp12", "safer32", "aegis17x31",
                                           "secded", "bch-t2", "bch-t6", "coset-w4"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string n = param_info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// ---------------------------------------------------------------------------
// BCH-t specifics: 2t stuck cells are erasures under a distance-(2t+1) code,
// so capability is exactly 2t at a metadata cost of 10t bits.

TEST(Bch, CapabilityIsExactlyTwoTErasures) {
  Rng rng(11);
  for (std::size_t t = 1; t <= 6; ++t) {
    const BchScheme bch(t);
    EXPECT_EQ(bch.guaranteed_correctable(), 2 * t);
    EXPECT_EQ(bch.metadata_bits(), 10 * t);
    for (int iter = 0; iter < 50; ++iter) {
      EXPECT_TRUE(bch.can_tolerate(random_faults(rng, 2 * t, kBlockBits), kBlockBits));
      EXPECT_FALSE(bch.can_tolerate(random_faults(rng, 2 * t + 1, kBlockBits), kBlockBits));
    }
  }
}

TEST(Bch, BeatsEcpSixInBothStrengthAndMetadata) {
  // The laboratory's headline: BCH-t6 guarantees 12 erasures in 60 metadata
  // bits; ECP-6 guarantees 6 in 63.
  const auto bch = make_scheme("bch-t6");
  const auto ecp = make_scheme("ecp6");
  EXPECT_GT(bch->guaranteed_correctable(), ecp->guaranteed_correctable());
  EXPECT_LT(bch->metadata_bits(), ecp->metadata_bits());
}

TEST(Bch, GfExpTableHasFullPeriod) {
  const BchScheme bch(1);
  // alpha generates GF(2^10)*: the powers 0..1022 are pairwise distinct.
  std::vector<bool> seen(1024, false);
  for (std::size_t e = 0; e < 1023; ++e) {
    const auto v = bch.alpha_pow(e);
    ASSERT_GT(v, 0u);
    ASSERT_LT(v, 1024u);
    EXPECT_FALSE(seen[v]) << "alpha^" << e << " repeats";
    seen[v] = true;
  }
  EXPECT_EQ(bch.alpha_pow(0), 1u);
}

// ---------------------------------------------------------------------------
// Coset specifics: beyond the one-per-word data-independent guarantee, any
// number of faults landing in compression slack is absorbed for free.

TEST(Coset, OneFaultPerWordIsToleratedDataIndependently) {
  const CosetScheme coset(4);
  std::vector<FaultCell> one_per_word;
  for (std::uint16_t w = 0; w < kBlockBits / 32; ++w) {
    one_per_word.push_back({static_cast<std::uint16_t>(w * 32 + 7), true});
  }
  EXPECT_TRUE(coset.can_tolerate(one_per_word, kBlockBits));  // 16 faults!
  one_per_word.push_back({9, false});  // second fault in word 0
  std::sort(one_per_word.begin(), one_per_word.end(),
            [](const FaultCell& a, const FaultCell& b) { return a.pos < b.pos; });
  EXPECT_FALSE(coset.can_tolerate(one_per_word, kBlockBits));
}

TEST(Coset, SlackFaultsAreFreeOnCompressibleData) {
  const CosetScheme coset(4);
  // All-zero data: every u32 cell is a 3-bit FPC zero-run tag, so bits 3..31
  // of every cell are slack. Pile two faults into the slack of each word —
  // way past the 1-fault guarantee — and the round-trip must still be exact.
  const std::vector<std::uint8_t> data(kBlockBytes, 0);
  std::vector<FaultCell> faults;
  for (std::uint16_t c = 0; c < kBlockBits / 32; ++c) {
    faults.push_back({static_cast<std::uint16_t>(c * 32 + 12), true});
    faults.push_back({static_cast<std::uint16_t>(c * 32 + 25), true});
  }
  EXPECT_FALSE(coset.can_tolerate(faults, kBlockBits)) << "data-independent check refuses";
  const auto enc = coset.encode(data, kBlockBits, faults);
  ASSERT_TRUE(enc.has_value()) << "slack-aware encode absorbs 32 stuck cells";
  const auto stored = apply_faults(enc->image, kBlockBits, faults);
  EXPECT_EQ(coset.decode(stored, kBlockBits, enc->meta, faults), data);
}

TEST(Coset, NoPatternAboveSlackPlusOnePerWordPasses) {
  // Coset declares no max_tolerable() bound because slack faults are free,
  // but for given content its count bound is the slack bits plus one fault
  // per word: random patterns past that must never pass.
  for (const std::size_t word_bytes : {4u, 8u}) {
    const CosetScheme coset(word_bytes);
    EXPECT_EQ(coset.max_tolerable(), kBlockBits);
    Rng rng(0xC05E + word_bytes);
    for (int iter = 0; iter < 200; ++iter) {
      std::vector<std::uint8_t> content(kBlockBits / 32);
      std::size_t bound = kBlockBits / (8 * word_bytes);
      for (auto& c : content) {
        c = static_cast<std::uint8_t>(3 + rng.next_below(30));
        bound += 32 - c;
      }
      for (std::size_t n = bound + 1; n <= bound + 8; ++n) {
        ASSERT_FALSE(coset.can_tolerate_with(random_faults(rng, n, kBlockBits), kBlockBits,
                                             content))
            << n << " faults over a content bound of " << bound;
      }
    }
  }
}

TEST(Coset, CellContentTracksFpcClasses) {
  // Tag (3 bits) + payload: zero run 0, sign-4 4, sign-8 8, halfword forms
  // 16, repeated byte 8; incompressible cells stay uncoded at 32 bits.
  EXPECT_EQ(CosetScheme::cell_content_bits(0u), 3u);
  EXPECT_EQ(CosetScheme::cell_content_bits(5u), 7u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0x7Bu), 11u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0x4321u), 19u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0xABABABABu), 11u);
  EXPECT_EQ(CosetScheme::cell_content_bits(0xDEADBEEFu), 32u);
}

TEST(Coset, WordSizeEightHalvesTheFlipBudget) {
  const CosetScheme w4(4);
  const CosetScheme w8(8);
  EXPECT_EQ(w4.metadata_bits(), 16u + 16u);  // coded flags + one flip per u32
  EXPECT_EQ(w8.metadata_bits(), 16u + 8u);   // coded flags + one flip per u64 word
  // Two faults in the two different u32 halves of one u64 word: fine for w4
  // (separate words), refused by w8 (same word).
  const std::vector<FaultCell> faults = {{3, true}, {40, false}};
  EXPECT_TRUE(w4.can_tolerate(faults, kBlockBits));
  EXPECT_FALSE(w8.can_tolerate(faults, kBlockBits));
}

}  // namespace
}  // namespace pcmsim
