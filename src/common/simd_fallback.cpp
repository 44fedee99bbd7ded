// Portable vector backend: 128-bit GNU vector extensions, which lower to
// SSE2 on x86 and NEON on AArch64 with no target-specific flags. Lane math
// mirrors the AVX2 backend at half width; anything that is only 8 lanes of
// u64 work (rep8, the base-8 geometries) stays scalar — at that width the
// bit tricks already run at vector speed.
#include "common/simd.hpp"

#include <cstring>

namespace pcmsim::simd {

namespace fallback {

namespace {

typedef std::uint16_t v8u16 __attribute__((vector_size(16)));
typedef std::int16_t v8s16 __attribute__((vector_size(16)));
typedef std::uint32_t v4u32 __attribute__((vector_size(16)));
typedef std::int32_t v4s32 __attribute__((vector_size(16)));
typedef std::uint64_t v2u64 __attribute__((vector_size(16)));

template <typename V>
V load(const void* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V>
void store(void* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

constexpr v8u16 kBit16 = {1, 2, 4, 8, 16, 32, 64, 128};

/// Expands the low 8 bits of `m` into 8 u16 lanes of 0xFFFF / 0x0000.
v8u16 spread8(unsigned m) {
  const auto b = static_cast<std::uint16_t>(m & 0xFFu);
  return (v8u16)((kBit16 & b) == kBit16);
}

/// True-lane test for (v + k) & high == 0 — the shared "fits in the low
/// delta_bytes as a signed value" range check, u32 lanes.
v4u32 fits32(v4u32 v, std::uint32_t k, std::uint32_t high) {
  return (v4u32)(((v + k) & high) == 0);
}

v8u16 fits16(v8u16 v, std::uint16_t k, std::uint16_t high) {
  return (v8u16)(((v + k) & high) == 0);
}

bool fits_u64(std::uint64_t v, unsigned delta_bytes) {
  const std::uint64_t k = 1ull << (delta_bytes * 8 - 1);
  return ((v + k) >> (delta_bytes * 8)) == 0;
}

/// BdiCompressor::layout_applies for one base-8 geometry, on wrapped u64
/// arithmetic (bit-identical to the int64 oracle).
bool geom8_ok(const std::uint64_t* w, unsigned delta_bytes) {
  std::uint64_t base = 0;
  bool have_base = false;
  for (std::size_t i = 0; i < 8; ++i) {
    if (fits_u64(w[i], delta_bytes)) continue;
    if (!have_base) {
      have_base = true;
      base = w[i];
      continue;
    }
    if (!fits_u64(w[i] - base, delta_bytes)) return false;
  }
  return true;
}

}  // namespace

std::uint64_t endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask) {
  // Branch-free over the eight 8-lane groups (an empty group adds 0), as in
  // the AVX2 backend.
  std::uint64_t died = 0;
  for (unsigned g = 0; g < 8; ++g) {
    const v8u16 sel = spread8(static_cast<unsigned>((mask >> (8 * g)) & 0xFFu));
    v8u16 e = load<v8u16>(lanes + 8 * g);
    e += sel;  // 0xFFFF == -1 per masked lane
    store(lanes + 8 * g, e);
    // Masked lanes that reached 0, as one bit each; births are rare, so the
    // horizontal fold runs only when some lane hit 0.
    const v8u16 hit = (v8u16)(e == 0) & sel & kBit16;
    const v2u64 any = (v2u64)hit;
    if ((any[0] | any[1]) == 0) continue;
    unsigned bits = 0;
    for (unsigned i = 0; i < 8; ++i) bits |= static_cast<unsigned>(hit[i]);
    died |= static_cast<std::uint64_t>(bits) << (8 * g);
  }
  return died;
}

void scan_words(const std::uint64_t* w, BlockScan& out) {
  std::uint64_t acc = 0;
  bool rep = true;
  for (std::size_t i = 0; i < 8; ++i) {
    acc |= w[i];
    rep = rep && w[i] == w[0];
  }
  out.all_zero = acc == 0;
  out.rep8 = rep;

  // FPC classes: priority-blend per u32 lane, four lanes per step.
  std::uint16_t zmask = 0;
  std::uint32_t bits = 0;
  v4u32 v[4];
  for (unsigned q = 0; q < 4; ++q) {
    v[q] = load<v4u32>(w + 2 * q);
    const v4u32 m0 = (v4u32)(v[q] == 0);
    const v4u32 m1 = fits32(v[q], 0x8u, 0xFFFFFFF0u);
    const v4u32 m2 = fits32(v[q], 0x80u, 0xFFFFFF00u);
    const v4u32 m3 = fits32(v[q], 0x8000u, 0xFFFF0000u);
    const v4u32 m4 = (v4u32)((v[q] & 0xFFFFu) == 0);
    const v8u16 halves = (v8u16)v[q];
    const v4u32 m5 = (v4u32)((v4u32)((halves + static_cast<std::uint16_t>(0x80)) &
                                     static_cast<std::uint16_t>(0xFF00)) == 0);
    const v4u32 rot = (v[q] << 8) | (v[q] >> 24);
    const v4u32 m6 = (v4u32)(rot == v[q]);
    v4u32 cls = {7, 7, 7, 7};
    cls = (cls & ~m6) | (m6 & 6u);
    cls = (cls & ~m5) | (m5 & 5u);
    cls = (cls & ~m4) | (m4 & 4u);
    cls = (cls & ~m3) | (m3 & 3u);
    cls = (cls & ~m2) | (m2 & 2u);
    cls = (cls & ~m1) | (m1 & 1u);
    cls &= ~m0;
    for (unsigned i = 0; i < 4; ++i) {
      const auto c = static_cast<std::uint8_t>(cls[i]);
      out.word_class[4 * q + i] = c;
      if (c == 0) {
        zmask = static_cast<std::uint16_t>(zmask | (1u << (4 * q + i)));
      } else {
        bits += kFpcWordBits[c];
      }
    }
  }
  out.zero_mask = zmask;
  out.fpc_bits = bits + fpc_zero_run_bits(zmask);

  std::uint8_t geom = 0;
  if (geom8_ok(w, 1)) geom = static_cast<std::uint8_t>(geom | (1u << kGeomB8D1));
  if (geom8_ok(w, 2)) geom = static_cast<std::uint8_t>(geom | (1u << kGeomB8D2));
  if (geom8_ok(w, 4)) geom = static_cast<std::uint8_t>(geom | (1u << kGeomB8D4));

  // Base-4 geometries: an oversized word's delta to the first oversized word
  // must fit; subtraction runs in 32-bit lanes with an explicit signed-
  // overflow test, which is exact for the int64 differences the oracle takes.
  for (unsigned d = 0; d < 2; ++d) {
    const std::uint32_t k = d == 0 ? 0x80u : 0x8000u;
    const std::uint32_t high = d == 0 ? 0xFFFFFF00u : 0xFFFF0000u;
    std::uint32_t over = 0;
    for (unsigned q = 0; q < 4; ++q) {
      const v4u32 f = fits32(v[q], k, high);
      for (unsigned i = 0; i < 4; ++i) {
        if (f[i] == 0) over |= 1u << (4 * q + i);
      }
    }
    bool ok = true;
    if (over != 0) {
      const unsigned first = static_cast<unsigned>(std::countr_zero(over));
      std::uint32_t base;
      std::memcpy(&base, reinterpret_cast<const std::uint8_t*>(w) + 4 * first, 4);
      for (unsigned q = 0; q < 4 && ok; ++q) {
        const v4u32 diff = v[q] - base;
        const v4u32 f = fits32(diff, k, high);
        const v4u32 ovf = (v[q] ^ base) & (v[q] ^ diff);
        const v4u32 good = f & ~(v4u32)((v4s32)ovf >> 31);
        for (unsigned i = 0; i < 4; ++i) {
          if ((over >> (4 * q + i)) & 1u) ok = ok && good[i] != 0;
        }
      }
    }
    if (ok) geom = static_cast<std::uint8_t>(geom | (1u << (d == 0 ? kGeomB4D1 : kGeomB4D2)));
  }

  // Base-2 geometry (delta 1): same structure over 32 u16 lanes.
  {
    std::uint32_t over = 0;
    v8u16 h[4];
    for (unsigned q = 0; q < 4; ++q) {
      h[q] = (v8u16)v[q];
      const v8u16 f = fits16(h[q], 0x80, 0xFF00);
      for (unsigned i = 0; i < 8; ++i) {
        if (f[i] == 0) over |= 1u << (8 * q + i);
      }
    }
    bool ok = true;
    if (over != 0) {
      const unsigned first = static_cast<unsigned>(std::countr_zero(over));
      std::uint16_t base;
      std::memcpy(&base, reinterpret_cast<const std::uint8_t*>(w) + 2 * first, 2);
      for (unsigned q = 0; q < 4 && ok; ++q) {
        const v8u16 diff = h[q] - base;
        const v8u16 f = fits16(diff, 0x80, 0xFF00);
        const v8u16 ovf = (h[q] ^ base) & (h[q] ^ diff);
        const v8u16 good = f & ~(v8u16)((v8s16)ovf >> 15);
        for (unsigned i = 0; i < 8; ++i) {
          if ((over >> (8 * q + i)) & 1u) ok = ok && good[i] != 0;
        }
      }
    }
    if (ok) geom = static_cast<std::uint8_t>(geom | (1u << kGeomB2D1));
  }
  out.geom_ok = geom;
}

void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask) {
  constexpr v4u32 kBit4 = {1, 2, 4, 8};
  for (unsigned g = 0; g < 4; ++g) {
    const std::uint32_t nib = (static_cast<std::uint32_t>(mask) >> (4 * g)) & 0xFu;
    if (nib == 0) continue;
    const v4u32 sel = (v4u32)((kBit4 & nib) == kBit4);
    v4u32 d = load<v4u32>(dst + 16 * g);
    const v4u32 s = load<v4u32>(src + 16 * g);
    d = (d & ~sel) | (s & sel);
    store(dst + 16 * g, d);
  }
}

const KernelTable kTable = {"fallback", &endurance_decrement64, &scan_words, &merge_block_u32};

}  // namespace fallback

}  // namespace pcmsim::simd
