// Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).
//
// A 64-byte block is viewed as n words of k bytes; each word is stored as a
// small signed delta from one of two bases: an implicit zero base (capturing
// small immediates) and one explicit base (the first word that does not fit
// the zero base). A per-word mask selects the base. Eight layouts are tried
// (zeros, repeated word, and the 6 base/delta geometries of the paper); the
// smallest applicable one wins.
#pragma once

#include "compression/compressor.hpp"
#include "compression/word_scan.hpp"

namespace pcmsim {

/// BDI layout ids (stored in CompressedBlock::encoding).
enum class BdiLayout : std::uint8_t {
  kZeros = 0,  ///< whole block is zero (1-byte image)
  kRep8 = 1,   ///< one repeated 8-byte word (8-byte image)
  kB8D1 = 2,
  kB8D2 = 3,
  kB8D4 = 4,
  kB4D1 = 5,
  kB4D2 = 6,
  kB2D1 = 7,
};

[[nodiscard]] std::string_view to_string(BdiLayout layout);

/// Compressed image size in bytes for a given layout (fixed per layout).
[[nodiscard]] std::size_t bdi_layout_size(BdiLayout layout);

class BdiCompressor {
 public:
  [[nodiscard]] std::optional<CompressedBlock> compress(const Block& block) const;
  [[nodiscard]] std::optional<std::size_t> probe_size(const Block& block) const;
  [[nodiscard]] Block decompress(const CompressedBlock& cb) const;

  /// Attempts exactly one layout; exposed for tests and ablation studies.
  [[nodiscard]] std::optional<CompressedBlock> compress_with_layout(const Block& block,
                                                                    BdiLayout layout) const;

  /// True when `layout` can represent the block (image size is fixed per
  /// layout, so this is the size-only probe for one layout).
  [[nodiscard]] static bool layout_applies(const Block& block, BdiLayout layout);

  /// First applicable layout in the pinned nondecreasing-size order, answered
  /// from a fused scan without re-walking the block. Agrees exactly with
  /// compress()'s winning layout (ties keep the earlier layout).
  [[nodiscard]] static std::optional<BdiLayout> probe_layout(const WordClassScan& scan);

  /// Compressed size from a scan; same nullopt cases and sizes as
  /// probe_size(block).
  [[nodiscard]] static std::optional<std::size_t> probe_size(const WordClassScan& scan);
};

}  // namespace pcmsim
