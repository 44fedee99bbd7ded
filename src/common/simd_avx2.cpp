// AVX2 backend: 256-bit lanes, x86-64 only. This TU is always compiled with
// -mavx2 (see src/common/CMakeLists.txt) so the differential tests can run
// it even when another backend is active; runtime entry from outside the
// active alias goes through compiled_backends(), which checks cpuid.
#include "common/simd.hpp"

#if PCMSIM_SIMD_HAS_AVX2

#include <immintrin.h>

#include <cstring>

namespace pcmsim::simd {

namespace avx2 {

namespace {

/// Per-lane bit selectors 1<<0 .. 1<<15 for expanding a 16-bit mask.
__m256i bit16() {
  return _mm256_setr_epi16(0x0001, 0x0002, 0x0004, 0x0008, 0x0010, 0x0020, 0x0040, 0x0080,
                           0x0100, 0x0200, 0x0400, 0x0800, 0x1000, 0x2000, 0x4000,
                           static_cast<short>(0x8000));
}

/// Expands 16 mask bits into 16 u16 lanes of 0xFFFF / 0x0000.
__m256i spread16(unsigned m16) {
  const __m256i sel = bit16();
  const __m256i bm = _mm256_set1_epi16(static_cast<short>(m16));
  return _mm256_cmpeq_epi16(_mm256_and_si256(bm, sel), sel);
}

/// True-lane test for (v + k) & high == 0 per u32 lane — "fits in the low
/// delta bytes as a signed value" for value/delta range checks.
__m256i fits_epi32(__m256i v, std::uint32_t k, std::uint32_t high) {
  const __m256i t = _mm256_and_si256(_mm256_add_epi32(v, _mm256_set1_epi32(static_cast<int>(k))),
                                     _mm256_set1_epi32(static_cast<int>(high)));
  return _mm256_cmpeq_epi32(t, _mm256_setzero_si256());
}

__m256i fits_epi16(__m256i v, short k, short high) {
  const __m256i t =
      _mm256_and_si256(_mm256_add_epi16(v, _mm256_set1_epi16(k)), _mm256_set1_epi16(high));
  return _mm256_cmpeq_epi16(t, _mm256_setzero_si256());
}

__m256i fits_epi64(__m256i v, std::uint64_t k, std::uint64_t high) {
  const __m256i t = _mm256_and_si256(
      _mm256_add_epi64(v, _mm256_set1_epi64x(static_cast<long long>(k))),
      _mm256_set1_epi64x(static_cast<long long>(high)));
  return _mm256_cmpeq_epi64(t, _mm256_setzero_si256());
}

unsigned mask_pd(__m256i cmp) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(cmp)));
}

unsigned mask_ps(__m256i cmp) {
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
}

/// 32-bit lane mask (bit per u16 lane, both vectors) from two epi16 compares.
std::uint32_t mask16x32(__m256i cmp_lo, __m256i cmp_hi) {
  // packs interleaves 128-bit halves; 0xD8 restores memory lane order.
  const __m256i packed =
      _mm256_permute4x64_epi64(_mm256_packs_epi16(cmp_lo, cmp_hi), 0xD8);
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(packed));
}

}  // namespace

std::uint64_t endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask) {
  // Branch-free over the four 16-lane groups: a group with no mask bits adds
  // 0 and stores its lanes back unchanged, which is cheaper than a
  // data-dependent branch on the sparse masks differential writes produce.
  const __m256i zero = _mm256_setzero_si256();
  __m256i hit[4];
  __m256i any = zero;
  for (unsigned g = 0; g < 4; ++g) {
    auto* p = reinterpret_cast<__m256i*>(lanes + 16 * g);
    const __m256i sel = spread16(static_cast<unsigned>((mask >> (16 * g)) & 0xFFFFu));
    // cmpeq lanes are 0xFFFF == -1: adding them is the masked decrement.
    const __m256i e = _mm256_add_epi16(_mm256_loadu_si256(p), sel);
    _mm256_storeu_si256(p, e);
    hit[g] = _mm256_and_si256(_mm256_cmpeq_epi16(e, zero), sel);
    any = _mm256_or_si256(any, hit[g]);
  }
  // Births are rare: pack the per-lane hits into a bit mask only when some
  // masked lane reached 0.
  if (_mm256_testz_si256(any, any)) return 0;
  return static_cast<std::uint64_t>(mask16x32(hit[0], hit[1])) |
         (static_cast<std::uint64_t>(mask16x32(hit[2], hit[3])) << 32);
}

void scan_words(const std::uint64_t* w, BlockScan& out) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4));
  const __m256i zero = _mm256_setzero_si256();

  const __m256i any = _mm256_or_si256(a, b);
  out.all_zero = _mm256_testz_si256(any, any) != 0;
  const __m256i first = _mm256_permute4x64_epi64(a, 0x00);
  const __m256i repm =
      _mm256_and_si256(_mm256_cmpeq_epi64(a, first), _mm256_cmpeq_epi64(b, first));
  out.rep8 = mask_pd(repm) == 0xFu;

  // FPC classes: all seven pattern tests as parallel range checks, then a
  // priority blend from lowest-precedence class down to zero.
  __m256i cls32[2];
  __m256i zm[2];
  const __m256i vecs[2] = {a, b};
  for (unsigned q = 0; q < 2; ++q) {
    const __m256i v = vecs[q];
    const __m256i m0 = _mm256_cmpeq_epi32(v, zero);
    const __m256i m1 = fits_epi32(v, 0x8u, 0xFFFFFFF0u);
    const __m256i m2 = fits_epi32(v, 0x80u, 0xFFFFFF00u);
    const __m256i m3 = fits_epi32(v, 0x8000u, 0xFFFF0000u);
    const __m256i m4 =
        _mm256_cmpeq_epi32(_mm256_and_si256(v, _mm256_set1_epi32(0xFFFF)), zero);
    // Both halfwords sign-extend from 8 bits: one epi16 add + mask, compared
    // as a whole u32 lane so the test demands both halves pass.
    const __m256i t5 = _mm256_and_si256(_mm256_add_epi16(v, _mm256_set1_epi16(0x80)),
                                        _mm256_set1_epi16(static_cast<short>(0xFF00)));
    const __m256i m5 = _mm256_cmpeq_epi32(t5, zero);
    const __m256i rot =
        _mm256_or_si256(_mm256_slli_epi32(v, 8), _mm256_srli_epi32(v, 24));
    const __m256i m6 = _mm256_cmpeq_epi32(rot, v);
    __m256i cls = _mm256_set1_epi32(7);
    cls = _mm256_blendv_epi8(cls, _mm256_set1_epi32(6), m6);
    cls = _mm256_blendv_epi8(cls, _mm256_set1_epi32(5), m5);
    cls = _mm256_blendv_epi8(cls, _mm256_set1_epi32(4), m4);
    cls = _mm256_blendv_epi8(cls, _mm256_set1_epi32(3), m3);
    cls = _mm256_blendv_epi8(cls, _mm256_set1_epi32(2), m2);
    cls = _mm256_blendv_epi8(cls, _mm256_set1_epi32(1), m1);
    cls = _mm256_andnot_si256(m0, cls);
    cls32[q] = cls;
    zm[q] = m0;
  }
  const auto zmask =
      static_cast<std::uint16_t>(mask_ps(zm[0]) | (mask_ps(zm[1]) << 8));
  out.zero_mask = zmask;

  // Pack the 16 u32 class lanes to 16 bytes in memory order.
  const __m256i p16 = _mm256_packus_epi32(cls32[0], cls32[1]);
  const __m256i p8 = _mm256_packus_epi16(p16, zero);
  const __m256i ordered =
      _mm256_permutevar8x32_epi32(p8, _mm256_setr_epi32(0, 4, 1, 5, 2, 3, 6, 7));
  const __m128i clsb = _mm256_castsi256_si128(ordered);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.word_class.data()), clsb);

  // Non-zero word bits via a byte-shuffle LUT + horizontal byte sum; zero
  // words contribute through the shared run-folding helper.
  const __m128i lut = _mm_setr_epi8(0, 3 + 4, 3 + 8, 3 + 16, 3 + 16, 3 + 16, 3 + 8, 3 + 32, 0,
                                    0, 0, 0, 0, 0, 0, 0);
  const __m128i perword = _mm_shuffle_epi8(lut, clsb);
  const __m128i sums = _mm_sad_epu8(perword, _mm_setzero_si128());
  const auto word_bits = static_cast<std::uint32_t>(_mm_extract_epi64(sums, 0) +
                                                    _mm_extract_epi64(sums, 1));
  out.fpc_bits = word_bits + fpc_zero_run_bits(zmask);

  std::uint8_t geom = 0;

  // Base-8 geometries: u64 lanes; wrapped subtraction matches the oracle's
  // int64 delta exactly.
  struct Geom64 {
    unsigned bit;
    std::uint64_t k;
    std::uint64_t high;
  };
  constexpr Geom64 kG8[3] = {{kGeomB8D1, 0x80ull, ~0xFFull},
                             {kGeomB8D2, 0x8000ull, ~0xFFFFull},
                             {kGeomB8D4, 0x80000000ull, ~0xFFFFFFFFull}};
  for (const auto& g : kG8) {
    const unsigned over = (~mask_pd(fits_epi64(a, g.k, g.high)) & 0xFu) |
                          ((~mask_pd(fits_epi64(b, g.k, g.high)) & 0xFu) << 4);
    bool ok = over == 0;
    if (!ok) {
      const __m256i base =
          _mm256_set1_epi64x(static_cast<long long>(w[std::countr_zero(over)]));
      const unsigned good = (mask_pd(fits_epi64(_mm256_sub_epi64(a, base), g.k, g.high))) |
                            (mask_pd(fits_epi64(_mm256_sub_epi64(b, base), g.k, g.high)) << 4);
      ok = (over & ~good) == 0;
    }
    if (ok) geom = static_cast<std::uint8_t>(geom | (1u << g.bit));
  }

  // Base-4 geometries: u32 lanes with an explicit signed-overflow test on the
  // subtraction, exact for the oracle's int64 differences.
  struct Geom32 {
    unsigned bit;
    std::uint32_t k;
    std::uint32_t high;
  };
  constexpr Geom32 kG4[2] = {{kGeomB4D1, 0x80u, 0xFFFFFF00u}, {kGeomB4D2, 0x8000u, 0xFFFF0000u}};
  for (const auto& g : kG4) {
    const unsigned over = (~mask_ps(fits_epi32(a, g.k, g.high)) & 0xFFu) |
                          ((~mask_ps(fits_epi32(b, g.k, g.high)) & 0xFFu) << 8);
    bool ok = over == 0;
    if (!ok) {
      std::uint32_t bw;
      std::memcpy(&bw, reinterpret_cast<const std::uint8_t*>(w) + 4 * std::countr_zero(over),
                  4);
      const __m256i base = _mm256_set1_epi32(static_cast<int>(bw));
      unsigned good = 0;
      for (unsigned q = 0; q < 2; ++q) {
        const __m256i v = vecs[q];
        const __m256i diff = _mm256_sub_epi32(v, base);
        const __m256i ovf =
            _mm256_and_si256(_mm256_xor_si256(v, base), _mm256_xor_si256(v, diff));
        const __m256i lane_ok =
            _mm256_andnot_si256(_mm256_srai_epi32(ovf, 31), fits_epi32(diff, g.k, g.high));
        good |= mask_ps(lane_ok) << (8 * q);
      }
      ok = (over & ~good) == 0;
    }
    if (ok) geom = static_cast<std::uint8_t>(geom | (1u << g.bit));
  }

  // Base-2 geometry (delta 1): 32 u16 lanes, same overflow-checked shape.
  {
    const std::uint32_t over = ~mask16x32(fits_epi16(a, 0x80, static_cast<short>(0xFF00)),
                                          fits_epi16(b, 0x80, static_cast<short>(0xFF00)));
    bool ok = over == 0;
    if (!ok) {
      std::uint16_t bw;
      std::memcpy(&bw, reinterpret_cast<const std::uint8_t*>(w) + 2 * std::countr_zero(over),
                  2);
      const __m256i base = _mm256_set1_epi16(static_cast<short>(bw));
      __m256i lane_ok[2];
      for (unsigned q = 0; q < 2; ++q) {
        const __m256i v = vecs[q];
        const __m256i diff = _mm256_sub_epi16(v, base);
        const __m256i ovf =
            _mm256_and_si256(_mm256_xor_si256(v, base), _mm256_xor_si256(v, diff));
        lane_ok[q] = _mm256_andnot_si256(_mm256_srai_epi16(ovf, 15),
                                         fits_epi16(diff, 0x80, static_cast<short>(0xFF00)));
      }
      const std::uint32_t good = mask16x32(lane_ok[0], lane_ok[1]);
      ok = (over & ~good) == 0;
    }
    if (ok) geom = static_cast<std::uint8_t>(geom | (1u << kGeomB2D1));
  }
  out.geom_ok = geom;
}

void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask) {
  const __m256i bit8lo = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i bit8hi = _mm256_slli_epi32(bit8lo, 8);
  const __m256i bm = _mm256_set1_epi32(mask);
  const __m256i sel_lo = _mm256_cmpeq_epi32(_mm256_and_si256(bm, bit8lo), bit8lo);
  const __m256i sel_hi = _mm256_cmpeq_epi32(_mm256_and_si256(bm, bit8hi), bit8hi);
  auto* d = reinterpret_cast<__m256i*>(dst);
  const auto* s = reinterpret_cast<const __m256i*>(src);
  _mm256_storeu_si256(
      d, _mm256_blendv_epi8(_mm256_loadu_si256(d), _mm256_loadu_si256(s), sel_lo));
  _mm256_storeu_si256(d + 1, _mm256_blendv_epi8(_mm256_loadu_si256(d + 1),
                                                _mm256_loadu_si256(s + 1), sel_hi));
}

const KernelTable kTable = {"avx2", &endurance_decrement64, &scan_words, &merge_block_u32};

}  // namespace avx2

}  // namespace pcmsim::simd

#endif  // PCMSIM_SIMD_HAS_AVX2
