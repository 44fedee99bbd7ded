// Differential tests for the portable SIMD layer (common/simd.hpp): every
// compiled backend must be bit-identical to the scalar reference on the
// endurance decrement (lanes and wear-out mask), fused block scan, and masked
// block merge kernels — over randomized inputs, adversarial lane patterns
// (sign boundaries, bit 63/64 straddles, sub-word masks), and the value-model
// corpus. The scan kernel is additionally checked against the compression
// oracles (FpcCompressor::classify / probe_size, BdiCompressor::layout_applies)
// so the scalar reference itself cannot drift from the domain definitions.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "compression/bdi.hpp"
#include "compression/fpc.hpp"
#include "compression/word_scan.hpp"
#include "trace/sampled_source.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {
namespace {

using simd::BlockScan;
using simd::KernelTable;

std::vector<const KernelTable*> backends() {
  const auto span = simd::compiled_backends();
  return {span.begin(), span.end()};
}

/// Adversarial 32-bit lane values: every FPC class boundary, sign-overflow
/// drivers for the base/delta subtraction, and bit-pattern edge cases.
const std::uint32_t kEdgeWords[] = {
    0x00000000u, 0x00000001u, 0x00000007u, 0x00000008u, 0xFFFFFFF8u, 0xFFFFFFF7u, 0x0000007Fu,
    0x00000080u, 0xFFFFFF80u, 0xFFFFFF7Fu, 0x00007FFFu, 0x00008000u, 0xFFFF8000u, 0xFFFF7FFFu,
    0x00010000u, 0xABCD0000u, 0x007F007Fu, 0x0080007Fu, 0x00800080u, 0xFF80FF80u, 0x7F7F7F7Fu,
    0xABABABABu, 0x80000000u, 0x7FFFFFFFu, 0xFFFFFFFFu, 0xDEADBEEFu, 0x00FF00FFu, 0x01020304u,
    // Two-signed-bytes carry traps: the low half's +0x80 carries out while
    // the high half sits exactly on the accept/reject boundary, so any
    // u32-wide range check misclassifies these (regression: astar lifetime
    // diverged between backends on 0xFF7FFFA5-shaped words).
    0xFF7FFFA5u, 0x007FFF80u, 0xFF7FFF80u, 0x0080FFFFu,
};

Block block_from_words(const std::uint64_t* w) {
  Block b;
  std::memcpy(b.data(), w, kBlockBytes);
  return b;
}

/// Checks one backend's scan against the scalar reference AND the domain
/// oracles on a single block.
void check_scan(const KernelTable& kt, const std::uint64_t* w) {
  BlockScan got;
  kt.scan_words(w, got);

  BlockScan ref;
  simd::scalar::scan_words(w, ref);
  ASSERT_EQ(got.word_class, ref.word_class) << kt.name;
  EXPECT_EQ(got.zero_mask, ref.zero_mask) << kt.name;
  EXPECT_EQ(got.fpc_bits, ref.fpc_bits) << kt.name;
  EXPECT_EQ(got.geom_ok, ref.geom_ok) << kt.name;
  EXPECT_EQ(got.all_zero, ref.all_zero) << kt.name;
  EXPECT_EQ(got.rep8, ref.rep8) << kt.name;

  // Domain oracles: per-word FPC classes and per-layout BDI applicability.
  const Block block = block_from_words(w);
  for (std::size_t i = 0; i < 16; ++i) {
    std::uint32_t word;
    std::memcpy(&word, block.data() + 4 * i, 4);
    EXPECT_EQ(got.word_class[i], static_cast<std::uint8_t>(FpcCompressor::classify(word)))
        << kt.name << " word " << i;
  }
  const struct {
    unsigned geom;
    BdiLayout layout;
  } kGeomMap[] = {
      {simd::kGeomB8D1, BdiLayout::kB8D1}, {simd::kGeomB8D2, BdiLayout::kB8D2},
      {simd::kGeomB8D4, BdiLayout::kB8D4}, {simd::kGeomB4D1, BdiLayout::kB4D1},
      {simd::kGeomB4D2, BdiLayout::kB4D2}, {simd::kGeomB2D1, BdiLayout::kB2D1},
  };
  for (const auto& m : kGeomMap) {
    EXPECT_EQ((got.geom_ok >> m.geom) & 1u,
              BdiCompressor::layout_applies(block, m.layout) ? 1u : 0u)
        << kt.name << " layout " << to_string(m.layout);
  }
  EXPECT_EQ(got.all_zero, BdiCompressor::layout_applies(block, BdiLayout::kZeros)) << kt.name;
  EXPECT_EQ(got.rep8, BdiCompressor::layout_applies(block, BdiLayout::kRep8)) << kt.name;

  // End-to-end: scan_block (through the active backend) must agree with the
  // legacy FPC probe on the folded bit total.
  const WordClassScan s = scan_block(block);
  EXPECT_EQ(s.fpc_bits, got.fpc_bits);
  const auto fpc_probe = FpcCompressor{}.probe_size(block);
  const auto scan_probe = FpcCompressor::probe_size(s);
  EXPECT_EQ(fpc_probe, scan_probe);
}

TEST(SimdKernel, BackendsCompiled) {
  const auto all = backends();
  ASSERT_GE(all.size(), 2u);
  EXPECT_STREQ(all[0]->name, "scalar");
  EXPECT_STREQ(all[1]->name, "fallback");
  // The active backend must be one of the compiled set (sanity for the
  // CMake option wiring).
  bool active_listed = false;
  for (const auto* kt : all) active_listed |= std::strcmp(kt->name, simd::backend_name()) == 0;
  EXPECT_TRUE(active_listed) << simd::backend_name();
}

TEST(SimdKernel, EnduranceDecrementRandomMasks) {
  Rng rng(0xDECAFu);
  for (const auto* kt : backends()) {
    for (int iter = 0; iter < 2000; ++iter) {
      // +64 tail lanes per the kernel contract (masked store slack).
      std::vector<std::uint16_t> got(128, 0);
      for (auto& v : got) v = static_cast<std::uint16_t>(rng.next_below(0xFFFE) + 1);
      std::vector<std::uint16_t> want = got;
      std::uint64_t mask = rng();
      switch (iter % 5) {
        case 0: break;
        case 1: mask &= 0xFFull; break;                  // sub-word chunk
        case 2: mask = 1ull << rng.next_below(64); break;  // single lane
        case 3: mask = ~0ull; break;                     // every lane
        case 4: mask = 0x8000000000000001ull; break;     // lanes 0 and 63
      }
      const std::size_t off = rng.next_below(64);  // arbitrary lane alignment
      const std::uint64_t want_died = simd::scalar::endurance_decrement64(want.data() + off, mask);
      const std::uint64_t got_died = kt->endurance_decrement64(got.data() + off, mask);
      ASSERT_EQ(got, want) << kt->name << " iter " << iter;
      ASSERT_EQ(got_died, want_died) << kt->name << " iter " << iter;
    }
  }
}

/// The died mask by definition: the masked lanes that held 1 before the pulse.
std::uint64_t lanes_at_one(const std::vector<std::uint16_t>& lanes, std::size_t off,
                           std::uint64_t mask) {
  std::uint64_t ones = 0;
  for (unsigned b = 0; b < 64; ++b) {
    if (lanes[off + b] == 1) ones |= 1ull << b;
  }
  return ones & mask;
}

TEST(SimdKernel, EnduranceDecrementReportsExactlyTheCellsThatWearOut) {
  // Near-dead lanes (1..4) so most pulses kill a cell, with masks dense,
  // sparse and empty: the died mask must equal the definition and the
  // scalar reference on every backend.
  Rng rng(0xD1EDu);
  for (const auto* kt : backends()) {
    for (int iter = 0; iter < 4000; ++iter) {
      std::vector<std::uint16_t> got(128, 0);
      for (auto& v : got) v = static_cast<std::uint16_t>(1 + rng.next_below(4));
      std::vector<std::uint16_t> want = got;
      std::uint64_t mask = 0;
      switch (iter % 4) {
        case 0: mask = rng(); break;
        case 1: mask = rng() & rng() & rng(); break;  // sparse
        case 2: mask = rng() | rng(); break;          // dense
        case 3: mask = 0; break;
      }
      const std::size_t off = rng.next_below(64);
      const std::uint64_t expected = lanes_at_one(got, off, mask);
      const std::uint64_t want_died = simd::scalar::endurance_decrement64(want.data() + off, mask);
      const std::uint64_t got_died = kt->endurance_decrement64(got.data() + off, mask);
      ASSERT_EQ(want_died, expected) << "scalar iter " << iter;
      ASSERT_EQ(got_died, expected) << kt->name << " iter " << iter;
      ASSERT_EQ(got, want) << kt->name << " iter " << iter;
    }
  }
}

TEST(SimdKernel, EnduranceDecrementNeverReportsUnmaskedZeroLanes) {
  // A write ending at the array's last cell: only the first `live` lanes are
  // cells, the rest are the zeroed tail lanes PcmArray pads with (and stuck
  // cells also hold 0). Those lanes are never programmed, so they must never
  // show up as died and must keep their value.
  Rng rng(0x7A11u);
  for (const auto* kt : backends()) {
    for (unsigned live = 0; live <= 64; ++live) {
      std::vector<std::uint16_t> lanes(128, 0);
      for (unsigned b = 0; b < live; ++b) {
        lanes[b] = static_cast<std::uint16_t>(1 + rng.next_below(3));
      }
      const std::uint64_t cells = live == 64 ? ~0ull : (1ull << live) - 1;
      const std::uint64_t mask = rng() & cells;
      const std::uint64_t expected = lanes_at_one(lanes, 0, mask);
      const std::uint64_t died = kt->endurance_decrement64(lanes.data(), mask);
      ASSERT_EQ(died, expected) << kt->name << " live " << live;
      for (unsigned b = live; b < 128; ++b) ASSERT_EQ(lanes[b], 0) << kt->name << " lane " << b;
    }
  }
}

TEST(SimdKernel, EnduranceDecrementZeroMaskTouchesNothing) {
  for (const auto* kt : backends()) {
    std::vector<std::uint16_t> lanes(128, 7);
    EXPECT_EQ(kt->endurance_decrement64(lanes.data(), 0), 0u) << kt->name;
    for (const auto v : lanes) ASSERT_EQ(v, 7) << kt->name;
  }
}

TEST(SimdKernel, ScanAdversarialLanePatterns) {
  // Every edge word replicated, paired, and placed in every lane position —
  // exercises base selection (first oversized word), overflow in the delta
  // subtraction, and class priority on boundary values.
  Rng rng(0x5CABu);
  for (const auto* kt : backends()) {
    for (const std::uint32_t a : kEdgeWords) {
      for (const std::uint32_t b : kEdgeWords) {
        std::uint64_t w[8];
        for (std::size_t i = 0; i < 8; ++i) {
          w[i] = (static_cast<std::uint64_t>(b) << 32) | a;
        }
        // Scatter one odd word to vary the base position.
        w[rng.next_below(8)] = (static_cast<std::uint64_t>(a) << 32) | b;
        check_scan(*kt, w);
      }
    }
  }
}

TEST(SimdKernel, ScanRandomized) {
  Rng rng(0xF00Du);
  for (const auto* kt : backends()) {
    for (int iter = 0; iter < 3000; ++iter) {
      std::uint64_t w[8];
      for (auto& v : w) {
        switch (iter % 4) {
          case 0: v = rng(); break;
          case 1: v = rng() & 0x00FF00FF00FF00FFull; break;  // compressible-ish
          case 2: v = kEdgeWords[rng.next_below(std::size(kEdgeWords))] *
                      0x100000001ull; break;
          case 3: v = rng.next_bool(0.5) ? 0 : rng(); break;  // zero runs
        }
      }
      check_scan(*kt, w);
    }
  }
}

TEST(SimdKernel, ScanValueModelCorpus) {
  // Realistic blocks from the calibrated value model (Table III app mix).
  for (const char* app : {"gcc", "milc", "lbm", "mcf"}) {
    SampledTraceSource gen(profile_by_name(app), 512, 0xC0DE);
    std::vector<WritebackEvent> events(512);
    ASSERT_EQ(gen.next_batch(events), events.size());
    for (const auto* kt : backends()) {
      for (const auto& ev : events) {
        std::uint64_t w[8];
        std::memcpy(w, ev.data.data(), kBlockBytes);
        check_scan(*kt, w);
      }
    }
  }
}

TEST(SimdKernel, MergeBlockRandomMasks) {
  Rng rng(0xB1E4Du);
  for (const auto* kt : backends()) {
    for (int iter = 0; iter < 2000; ++iter) {
      Block dst;
      Block src;
      for (auto& v : dst) v = static_cast<std::uint8_t>(rng.next_below(256));
      for (auto& v : src) v = static_cast<std::uint8_t>(rng.next_below(256));
      std::uint16_t mask;
      switch (iter % 4) {
        case 0: mask = static_cast<std::uint16_t>(rng.next_below(0x10000)); break;
        case 1: mask = 0; break;
        case 2: mask = 0xFFFF; break;
        case 3: mask = static_cast<std::uint16_t>(1u << rng.next_below(16)); break;
      }
      Block want = dst;
      simd::scalar::merge_block_u32(want.data(), src.data(), mask);
      Block got = dst;
      kt->merge_block_u32(got.data(), src.data(), mask);
      ASSERT_EQ(got, want) << kt->name << " mask " << mask;
    }
  }
}

}  // namespace
}  // namespace pcmsim
