// Scalar reference backend: the definitional bit-walk implementations every
// vector backend is differentially tested against. Also hosts the backend
// registry, since scalar is the one backend that always exists.
#include "common/simd.hpp"

#include <cstring>

namespace pcmsim::simd {

namespace scalar {

std::uint64_t endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask) {
  std::uint64_t died = 0;
  while (mask != 0) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    if (--lanes[b] == 0) died |= 1ull << b;
  }
  return died;
}

namespace {

/// FPC word class by the numeric rules of FpcCompressor::classify (the
/// mapping is static_asserted where the two meet, in word_scan.cpp).
std::uint8_t classify_u32(std::uint32_t w) {
  if (w == 0) return 0;
  if (((w + 0x8u) & 0xFFFFFFF0u) == 0) return 1;        // 4-bit sign-extended
  if (((w + 0x80u) & 0xFFFFFF00u) == 0) return 2;       // 8-bit sign-extended
  if (((w + 0x8000u) & 0xFFFF0000u) == 0) return 3;     // 16-bit sign-extended
  if ((w & 0xFFFFu) == 0) return 4;                     // zero-padded low half
  // Two signed bytes: each 16-bit half must be tested independently — a
  // single u32-wide add would leak the low half's carry into the high
  // half's range check (e.g. 0xFF7FFFA5 must stay uncompressed).
  if (((((w & 0xFFFFu) + 0x80u) & 0xFF00u) | (((w >> 16) + 0x80u) & 0xFF00u)) == 0) return 5;
  const std::uint32_t rot = (w << 8) | (w >> 24);
  if (rot == w) return 6;                               // repeated byte
  return 7;                                             // uncompressed
}

/// Streaming replica of BdiCompressor::layout_applies for one base/delta
/// geometry (see compression/bdi.cpp): the explicit base is the first word
/// whose own value does not fit the delta width, and every later oversized
/// word must sit within delta reach of it.
struct GeomState {
  bool ok = true;
  bool have_base = false;
  std::int64_t base = 0;

  static bool fits_signed(std::int64_t v, unsigned bytes) {
    const std::int64_t lo = -(std::int64_t{1} << (bytes * 8 - 1));
    const std::int64_t hi = (std::int64_t{1} << (bytes * 8 - 1)) - 1;
    return v >= lo && v <= hi;
  }

  void feed(std::int64_t word, unsigned delta_bytes) {
    if (!ok || fits_signed(word, delta_bytes)) return;
    if (!have_base) {
      have_base = true;
      base = word;  // the base's own delta is 0
      return;
    }
    // Wrapped two's-complement subtraction: identical bit pattern to the
    // int64 subtraction the BDI oracle performs (u64 avoids the formal UB).
    const auto diff = static_cast<std::int64_t>(static_cast<std::uint64_t>(word) -
                                                static_cast<std::uint64_t>(base));
    if (!fits_signed(diff, delta_bytes)) ok = false;
  }
};

}  // namespace

void scan_words(const std::uint64_t* w, BlockScan& out) {
  std::uint64_t acc = 0;
  bool rep = true;
  for (std::size_t i = 0; i < 8; ++i) {
    acc |= w[i];
    rep = rep && w[i] == w[0];
  }
  out.all_zero = acc == 0;
  out.rep8 = rep;

  GeomState b8d1;
  GeomState b8d2;
  GeomState b8d4;
  GeomState b4d1;
  GeomState b4d2;
  GeomState b2d1;
  std::uint32_t bits = 0;
  std::uint16_t zmask = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto sw = static_cast<std::int64_t>(w[i]);
    b8d1.feed(sw, 1);
    b8d2.feed(sw, 2);
    b8d4.feed(sw, 4);
    for (std::size_t h = 0; h < 2; ++h) {
      const auto u32 = static_cast<std::uint32_t>(w[i] >> (32 * h));
      const auto s32 = static_cast<std::int64_t>(static_cast<std::int32_t>(u32));
      b4d1.feed(s32, 1);
      b4d2.feed(s32, 2);
      for (std::size_t q = 0; q < 2; ++q) {
        const auto u16 = static_cast<std::uint16_t>(u32 >> (16 * q));
        b2d1.feed(static_cast<std::int64_t>(static_cast<std::int16_t>(u16)), 1);
      }
      const std::uint8_t cls = classify_u32(u32);
      out.word_class[2 * i + h] = cls;
      if (cls == 0) {
        zmask = static_cast<std::uint16_t>(zmask | (1u << (2 * i + h)));
      } else {
        bits += kFpcWordBits[cls];
      }
    }
  }
  out.zero_mask = zmask;
  out.fpc_bits = bits + fpc_zero_run_bits(zmask);
  out.geom_ok = static_cast<std::uint8_t>(
      (b8d1.ok ? 1u << kGeomB8D1 : 0) | (b8d2.ok ? 1u << kGeomB8D2 : 0) |
      (b8d4.ok ? 1u << kGeomB8D4 : 0) | (b4d1.ok ? 1u << kGeomB4D1 : 0) |
      (b4d2.ok ? 1u << kGeomB4D2 : 0) | (b2d1.ok ? 1u << kGeomB2D1 : 0));
}

void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask) {
  std::uint32_t m = mask;
  while (m != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(m));
    m &= m - 1;
    std::memcpy(dst + i * 4, src + i * 4, 4);
  }
}

const KernelTable kTable = {"scalar", &endurance_decrement64, &scan_words, &merge_block_u32};

}  // namespace scalar

const char* backend_name() { return active::kTable.name; }

std::span<const KernelTable* const> compiled_backends() {
#if PCMSIM_SIMD_HAS_AVX2
  static const bool have_avx2 = __builtin_cpu_supports("avx2");
  static const KernelTable* const with_avx2[] = {&scalar::kTable, &fallback::kTable,
                                                 &avx2::kTable};
  if (have_avx2) return {with_avx2, 3};
#endif
  static const KernelTable* const portable[] = {&scalar::kTable, &fallback::kTable};
  return {portable, 2};
}

}  // namespace pcmsim::simd
