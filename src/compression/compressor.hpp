// Compressed-image types shared by the block compressors.
//
// The paper (Table I) evaluates two hardware cache/memory compressors, BDI
// (Pekhimenko et al., PACT'12) and FPC (Alameldeen & Wood, ISCA'04), and always
// stores the smaller of the two outputs ("BEST"). Both are implemented here
// bit-accurately with full round-trip decompression.
//
// Each compressor (BdiCompressor, FpcCompressor, BestOfCompressor) offers
// compress(), which declines (nullopt) when the block matches none of its
// patterns or would not shrink, and otherwise returns an image strictly
// smaller than kBlockBytes that round-trips exactly through decompress();
// probe_size() answers the same size without materializing the image.
//
// The work is split into two phases:
//  * probe (phase 1): size/scheme questions answered from a single fused
//    WordClassScan pass over the block (word_scan.hpp) — no bit-packing. The
//    write path's Figure-8 heuristic and window placement consume only this.
//  * materialize (phase 2): producing the actual CompressedBlock image, paid
//    only when a compressed store is accepted (BestOfCompressor::plan() /
//    materialize()). compress() remains the one-shot combination and
//    the bit-identity reference for both phases.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/inline_bytes.hpp"
#include "common/types.hpp"

namespace pcmsim {

/// Which algorithm produced a compressed image.
enum class CompressionScheme : std::uint8_t {
  kNone = 0,  ///< stored raw (incompressible or policy chose uncompressed)
  kBdi = 1,
  kFpc = 2,
};

[[nodiscard]] constexpr std::string_view to_string(CompressionScheme s) {
  switch (s) {
    case CompressionScheme::kNone: return "none";
    case CompressionScheme::kBdi: return "bdi";
    case CompressionScheme::kFpc: return "fpc";
  }
  return "?";
}

/// A compressed 64-byte block image plus the metadata needed to decompress it.
///
/// `encoding` is scheme-specific (e.g. which BDI base/delta layout) and fits
/// the 5-bit per-line metadata budget the paper allocates (Section III-B).
struct CompressedBlock {
  InlineBytes bytes;  ///< payload, bytes.size() <= kBlockBytes, stored inline
  CompressionScheme scheme = CompressionScheme::kNone;
  std::uint8_t encoding = 0;  ///< scheme-specific layout id (< 32)

  [[nodiscard]] std::size_t size_bytes() const { return bytes.size(); }
};

}  // namespace pcmsim
