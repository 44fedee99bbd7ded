#include "compression/best_of.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"

namespace pcmsim {
namespace {

TEST(BestOf, PicksSmallerOfBdiAndFpc) {
  BestOfCompressor best;
  // Narrow 8-byte deltas: BDI b8d1 (17 B) beats FPC (raw 35-bit words).
  Block bdi_friendly{};
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t v = 0x4141'4141'0000'0000ull + i * 5;
    std::memcpy(bdi_friendly.data() + i * 8, &v, 8);
  }
  const auto r1 = best.compress(bdi_friendly);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->scheme, CompressionScheme::kBdi);

  // Mostly-zero with scattered small words: FPC beats every BDI layout.
  Block fpc_friendly{};
  const std::uint32_t w = 3;
  std::memcpy(fpc_friendly.data() + 20, &w, 4);
  const auto r2 = best.compress(fpc_friendly);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->scheme, CompressionScheme::kFpc);
  EXPECT_LT(r2->size_bytes(), 8u);
}

TEST(BestOf, DecompressDispatchesOnScheme) {
  BestOfCompressor best;
  Rng rng(31);
  for (int iter = 0; iter < 200; ++iter) {
    Block b{};
    const std::uint64_t base = rng();
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t v = (iter % 2) ? base + rng.next_below(100)
                                         : rng.next_below(50);
      std::memcpy(b.data() + i * 8, &v, 8);
    }
    const auto r = best.compress(b);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(best.decompress(*r), b);
  }
}

TEST(BestOf, LatencyMatchesWinner) {
  BestOfCompressor best;
  CompressedBlock bdi;
  bdi.scheme = CompressionScheme::kBdi;
  CompressedBlock fpc;
  fpc.scheme = CompressionScheme::kFpc;
  CompressedBlock raw;
  EXPECT_EQ(best.latency_for(bdi), 1u);
  EXPECT_EQ(best.latency_for(fpc), 5u);
  EXPECT_EQ(best.latency_for(raw), 0u);
}

TEST(Encoding, PackUnpackRoundTrips) {
  for (auto scheme : {CompressionScheme::kNone, CompressionScheme::kBdi, CompressionScheme::kFpc}) {
    for (std::uint8_t layout = 0; layout < 8; ++layout) {
      const std::uint8_t packed = pack_encoding(scheme, layout);
      EXPECT_LT(packed, 32) << "must fit the 5-bit metadata budget";
      EXPECT_EQ(unpack_scheme(packed), scheme);
      EXPECT_EQ(unpack_layout(packed), layout);
    }
  }
}

TEST(BestOf, ImageNeverGrowsToBlockSize) {
  BestOfCompressor best;
  Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    Block b{};
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_below(4) ? 0 : rng());
    const auto r = best.compress(b);
    if (r) {
      EXPECT_LT(r->size_bytes(), kBlockBytes);
    }
  }
}

}  // namespace
}  // namespace pcmsim
