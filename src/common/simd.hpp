// Portable SIMD layer for the write-path hot kernels.
//
// Three backends implement the same three kernels in separate translation
// units, selected at configure time by the PCMSIM_SIMD CMake option
// (AUTO / AVX2 / FALLBACK / OFF -> compile definition PCMSIM_SIMD_BACKEND):
//
//  * scalar   (simd_scalar.cpp)   — the bit-walk reference implementation;
//    every other backend must be bit-identical to it (tests/simd_kernel_test
//    drives the differential checks, CI runs the full suite forced to the
//    scalar and to the fallback backend),
//  * fallback (simd_fallback.cpp) — 128-bit GNU vector extensions; compiles
//    to SSE2 on x86 and to NEON on AArch64 without any -m flags,
//  * avx2     (simd_avx2.cpp)     — 256-bit intrinsics, x86-64 only; the TU
//    is compiled with -mavx2 regardless of the active backend so tests can
//    cross-check it (runtime entry is cpuid-gated via compiled_backends()).
//
// `simd::active` aliases the selected backend's namespace, so call sites are
// compile-time dispatched (`simd::active::scan_words(...)`) and LTO can
// inline across the TU boundary. The KernelTable registry exists for the
// differential tests only — never call through it on a hot path.
//
// Kernel contracts (identical across backends):
//
//  endurance_decrement64(lanes, mask) -> died
//    lanes[b] -= 1 for every set bit b of `mask`; returns the mask of those
//    lanes that reached 0. Every masked lane must be >= 1 on entry (a live
//    PCM cell always has endurance left), so a returned bit is exactly a
//    cell that wears out on this pulse. Touches exactly 64 u16 lanes: lanes
//    whose mask bit is clear are rewritten with their current value (masked
//    store) and never show up in the result even when they hold 0, so the
//    caller must own all 64 lanes — PcmArray pads its endurance array with
//    64 zeroed tail lanes for ranges ending at the last cell.
//
//  scan_words(words8, out)
//    The fused 64-byte block classification (compression probe): per-u32
//    FPC pattern class, FPC stream bits with zero-run folding, BDI base/
//    delta geometry applicability, all-zero / repeated-u64 flags. The class
//    ids in BlockScan::word_class are numerically the FpcPattern values and
//    the geometry bits follow kGeom* below; compression/word_scan.cpp
//    static_asserts the mapping and is the only consumer.
//
//  merge_block_u32(dst, src, mask)
//    dst 4-byte lane i = src lane i for every set bit i of `mask` (16 lanes
//    = one 64-byte block). Lanes with a clear bit are rewritten unchanged.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

namespace pcmsim::simd {

/// Result of one fused block scan. Field semantics mirror
/// compression/word_scan.hpp's WordClassScan; this struct is domain-neutral
/// so the kernel TUs need no compression headers.
struct BlockScan {
  std::array<std::uint8_t, 16> word_class{};  ///< FPC class id per u32 word
  std::uint16_t zero_mask = 0;                ///< bit i: u32 word i == 0
  std::uint32_t fpc_bits = 0;                 ///< FPC stream bits, runs folded
  std::uint8_t geom_ok = 0;                   ///< kGeom* bits: geometry applies
  bool all_zero = false;                      ///< every byte zero
  bool rep8 = false;                          ///< one repeated u64 word
};

/// geom_ok bit indices: base/delta geometries (zeros/rep8 are the flags).
inline constexpr unsigned kGeomB8D1 = 0;
inline constexpr unsigned kGeomB8D2 = 1;
inline constexpr unsigned kGeomB8D4 = 2;
inline constexpr unsigned kGeomB4D1 = 3;
inline constexpr unsigned kGeomB4D2 = 4;
inline constexpr unsigned kGeomB2D1 = 5;

/// FPC stream bits per non-zero word class (3-bit prefix + payload), indexed
/// by class id; class 0 (zero run) contributes via fpc_zero_run_bits instead.
inline constexpr std::array<std::uint8_t, 8> kFpcWordBits = {0,  3 + 4,  3 + 8, 3 + 16,
                                                             3 + 16, 3 + 16, 3 + 8, 3 + 32};

/// FPC stream bits contributed by the zero words of a block: each maximal run
/// of set bits in `zero_mask` costs 6 bits (prefix + 3-bit length) per started
/// group of 8 words — exactly the legacy probe's run folding. Shared by every
/// backend so the folding rule lives in one place.
[[nodiscard]] inline std::uint32_t fpc_zero_run_bits(std::uint32_t zero_mask) {
  std::uint32_t bits = 0;
  while (zero_mask != 0) {
    const unsigned start = static_cast<unsigned>(std::countr_zero(zero_mask));
    const unsigned len = static_cast<unsigned>(std::countr_one(zero_mask >> start));
    bits += 6 * ((len + 7) / 8);
    zero_mask >>= start;
    zero_mask >>= len;
  }
  return bits;
}

/// Differential-test registry entry: one backend's kernels by pointer.
struct KernelTable {
  const char* name;
  std::uint64_t (*endurance_decrement64)(std::uint16_t* lanes, std::uint64_t mask);
  void (*scan_words)(const std::uint64_t* words8, BlockScan& out);
  void (*merge_block_u32)(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask);
};

namespace scalar {
std::uint64_t endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask);
void scan_words(const std::uint64_t* words8, BlockScan& out);
void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask);
extern const KernelTable kTable;
}  // namespace scalar

namespace fallback {
std::uint64_t endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask);
void scan_words(const std::uint64_t* words8, BlockScan& out);
void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask);
extern const KernelTable kTable;
}  // namespace fallback

#if defined(__x86_64__) || defined(__amd64__) || defined(_M_X64)
#define PCMSIM_SIMD_HAS_AVX2 1
namespace avx2 {
std::uint64_t endurance_decrement64(std::uint16_t* lanes, std::uint64_t mask);
void scan_words(const std::uint64_t* words8, BlockScan& out);
void merge_block_u32(std::uint8_t* dst, const std::uint8_t* src, std::uint16_t mask);
extern const KernelTable kTable;
}  // namespace avx2
#else
#define PCMSIM_SIMD_HAS_AVX2 0
#endif

// Compile-time backend selection (0 = scalar, 1 = fallback, 2 = avx2); the
// definition comes from src/common/CMakeLists.txt via the PCMSIM_SIMD option.
#ifndef PCMSIM_SIMD_BACKEND
#define PCMSIM_SIMD_BACKEND 0
#endif

#if PCMSIM_SIMD_BACKEND == 2
#if !PCMSIM_SIMD_HAS_AVX2
#error "PCMSIM_SIMD_BACKEND=2 (AVX2) requires an x86-64 target"
#endif
namespace active = avx2;
#elif PCMSIM_SIMD_BACKEND == 1
namespace active = fallback;
#else
namespace active = scalar;
#endif

/// Name of the compile-time-selected backend ("scalar", "fallback", "avx2").
[[nodiscard]] const char* backend_name();

/// Backends compiled into this binary AND runnable on this CPU (the avx2
/// entry is dropped when cpuid lacks AVX2). Scalar is always first, so
/// differential tests can use backends()[0] as the oracle.
[[nodiscard]] std::span<const KernelTable* const> compiled_backends();

}  // namespace pcmsim::simd
