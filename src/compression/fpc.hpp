// Frequent Pattern Compression (Alameldeen & Wood, ISCA 2004 / TR-1500).
//
// Each 4-byte word is encoded as a 3-bit prefix plus a variable-length data
// field; runs of zero words collapse into a single prefix. The compressed
// image is a packed bit stream (LSB-first), padded to a whole byte count.
#pragma once

#include "compression/compressor.hpp"
#include "compression/word_scan.hpp"

namespace pcmsim {

/// FPC word pattern prefixes (3 bits on the wire).
enum class FpcPattern : std::uint8_t {
  kZeroRun = 0,        ///< 1-8 consecutive all-zero words; data = 3-bit length-1
  kSign4 = 1,          ///< 4-bit sign-extended immediate
  kSign8 = 2,          ///< 8-bit sign-extended immediate
  kSign16 = 3,         ///< 16-bit sign-extended immediate
  kHighHalfZeroPad = 4,///< non-zero upper halfword, zero lower halfword
  kTwoSignedBytes = 5, ///< two halfwords, each a sign-extended byte
  kRepeatedByte = 6,   ///< all four bytes identical
  kUncompressed = 7,   ///< raw 32-bit word
};

class FpcCompressor {
 public:
  [[nodiscard]] std::optional<CompressedBlock> compress(const Block& block) const;
  [[nodiscard]] std::optional<std::size_t> probe_size(const Block& block) const;
  [[nodiscard]] Block decompress(const CompressedBlock& cb) const;

  /// Classifies one 4-byte word (ignoring zero-run folding); exposed for tests.
  [[nodiscard]] static FpcPattern classify(std::uint32_t word);

  /// Payload bits for a pattern (excluding the 3-bit prefix).
  [[nodiscard]] static unsigned payload_bits(FpcPattern p);

  /// Compressed size from a fused scan (phase 1): same nullopt cases and
  /// sizes as probe_size(block), derived from scan.fpc_bits alone.
  [[nodiscard]] static std::optional<std::size_t> probe_size(const WordClassScan& scan);

  /// Phase 2: packs the image using the scan's per-word classes (no
  /// re-classification). Precondition: probe_size(scan) returned a value.
  /// Bit-identical to compress(block)'s image.
  [[nodiscard]] CompressedBlock materialize(const Block& block, const WordClassScan& scan) const;
};

}  // namespace pcmsim
