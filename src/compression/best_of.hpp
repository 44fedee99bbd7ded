// The paper's "BEST" compressor: run BDI and FPC in parallel, store whichever
// image is smaller (ties go to BDI for its 1-cycle decompression).
//
// Implemented as a two-phase probe -> materialize pipeline: plan() answers
// the winning scheme/layout/size from one fused WordClassScan pass without
// packing any bits, and materialize() turns an accepted plan into the actual
// CompressedBlock on demand. compress() is plan() + materialize() and remains
// bit-identical to running both legacy compressors to completion.
#pragma once

#include <memory>

#include "compression/bdi.hpp"
#include "compression/fpc.hpp"
#include "compression/word_scan.hpp"

namespace pcmsim {

/// Combined 5-bit encoding id carried in per-line metadata: bits [4:3] scheme,
/// bits [2:0] scheme-specific layout. Section III-B budgets exactly 5 bits.
[[nodiscard]] std::uint8_t pack_encoding(CompressionScheme scheme, std::uint8_t layout);
[[nodiscard]] CompressionScheme unpack_scheme(std::uint8_t packed);
[[nodiscard]] std::uint8_t unpack_layout(std::uint8_t packed);

/// Size-only compression result: what probe() learns without materializing
/// the winning image's bytes.
struct SizeProbe {
  std::size_t size_bytes = 0;
  CompressionScheme scheme = CompressionScheme::kNone;
};

/// Phase-1 output: the best-of decision (winning scheme, scheme-specific
/// layout id, image size) plus the scan it was derived from, so phase 2 can
/// materialize the image without re-walking the block. The winner, size, and
/// tie-breaking (BDI wins ties) match compress() exactly.
struct CompressionPlan {
  std::uint8_t size = 0;  ///< winning image size in bytes (< kBlockBytes)
  CompressionScheme scheme = CompressionScheme::kNone;
  std::uint8_t encoding = 0;  ///< scheme-specific layout id (BdiLayout / 0)
  WordClassScan scan;

  [[nodiscard]] std::size_t size_bytes() const { return size; }
};

/// Both schemes' probe sizes from one fused scan (fig03's per-scheme columns).
struct ProbePair {
  std::optional<std::size_t> bdi;
  std::optional<std::size_t> fpc;
};

class BestOfCompressor {
 public:
  [[nodiscard]] std::optional<CompressedBlock> compress(const Block& block) const;
  [[nodiscard]] std::optional<std::size_t> probe_size(const Block& block) const;

  /// Phase 1: one fused pass answering scheme, layout, and size; no bits are
  /// packed. nullopt exactly when compress() declines.
  [[nodiscard]] std::optional<CompressionPlan> plan(const Block& block) const;

  /// Phase 2: materializes the plan's image. Precondition: `p` came from
  /// plan() on this same block. Bit-identical to compress()'s image.
  [[nodiscard]] CompressedBlock materialize(const Block& block, const CompressionPlan& p) const;

  /// Per-scheme probe sizes from a single scan (one pass instead of two).
  [[nodiscard]] ProbePair probe_both(const Block& block) const;

  /// Size-only probe keeping the winning scheme (for latency studies);
  /// winner/tie rules match compress() exactly (ties go to BDI).
  [[nodiscard]] std::optional<SizeProbe> probe(const Block& block) const;

  [[nodiscard]] Block decompress(const CompressedBlock& cb) const;

  /// Latency for a specific image (1 cycle for BDI, 5 for FPC, 0 for raw).
  [[nodiscard]] std::uint32_t latency_for(const CompressedBlock& cb) const;

  [[nodiscard]] const BdiCompressor& bdi() const { return bdi_; }
  [[nodiscard]] const FpcCompressor& fpc() const { return fpc_; }

 private:
  BdiCompressor bdi_;
  FpcCompressor fpc_;
};

}  // namespace pcmsim
