// SECDED (72,64) Hsiao code, applied independently to each 64-bit word of the
// line (8 words x 8 check bits = the full 64-bit ECC-chip budget).
//
// Included as the conventional-DRAM baseline the paper argues *against* for
// PCM (Section II-C): it corrects at most one stuck cell per 64-bit word and
// its check bits are written on every data update. The `ablate_ecc_scheme`
// bench quantifies that argument.
#pragma once

#include <array>

#include "ecc/scheme.hpp"

namespace pcmsim {

class SecdedScheme final : public HardErrorScheme {
 public:
  SecdedScheme();

  [[nodiscard]] std::string_view name() const override { return "SECDED-72.64"; }
  [[nodiscard]] std::size_t metadata_bits() const override { return 64; }
  [[nodiscard]] std::size_t guaranteed_correctable() const override { return 1; }
  /// One fault per 64-bit word, eight words per line.
  [[nodiscard]] std::size_t max_tolerable() const override { return kBlockBits / 64; }
  /// Check bits span fixed 64-bit words of the whole line: no sub-line
  /// windows, and only the Baseline (uncompressed, non-sliding) mode is legal.
  [[nodiscard]] SchemeTraits traits() const override {
    SchemeTraits t = HardErrorScheme::traits();
    t.composes_with_window = false;
    t.baseline_only = true;
    return t;
  }
  [[nodiscard]] bool can_tolerate(std::span<const FaultCell> faults,
                                  std::size_t window_bits) const override;
  [[nodiscard]] std::optional<EncodeResult> encode(
      std::span<const std::uint8_t> data, std::size_t window_bits,
      std::span<const FaultCell> faults) const override;
  [[nodiscard]] InlineBytes decode(std::span<const std::uint8_t> raw,
                                                 std::size_t window_bits, std::uint64_t meta,
                                                 std::span<const FaultCell> faults) const override;

  /// Check bits for one 64-bit data word.
  [[nodiscard]] std::uint8_t compute_check(std::uint64_t word) const;

  /// Corrects up to one flipped bit in (word, check). Returns nullopt on an
  /// uncorrectable (double) error.
  struct Corrected {
    std::uint64_t word;
    bool corrected_data_bit;
  };
  [[nodiscard]] std::optional<Corrected> correct(std::uint64_t word, std::uint8_t check) const;

 private:
  // column_[i] is the 8-bit odd-weight syndrome column of data bit i;
  // check bit j has the weight-1 column (1 << j).
  std::array<std::uint8_t, 64> column_{};
  // Transpose of column_: bit i of parity_mask_[j] is bit j of column_[i],
  // so check bit j is the parity of (word & parity_mask_[j]) — 8 popcounts
  // per word instead of a column XOR per set data bit.
  std::array<std::uint64_t, 8> parity_mask_{};
};

}  // namespace pcmsim
