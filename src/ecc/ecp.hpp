// Error-Correcting Pointers (Schechter et al., ISCA 2010).
//
// Each correction entry pairs a pointer to a failed cell with a replacement
// bit stored in (reliable) ECC-chip cells. ECP-6 on a 512-bit line uses
// 6 x (9-bit pointer + 1-bit replacement) = 60 bits plus a full/active field,
// fitting the 12.5% ECC-DIMM budget; it corrects any 6 stuck cells.
#pragma once

#include <string>

#include "ecc/scheme.hpp"

namespace pcmsim {

class EcpScheme final : public HardErrorScheme {
 public:
  /// `entries` is the correction strength (6 for the paper's ECP-6).
  explicit EcpScheme(std::size_t entries = 6);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t metadata_bits() const override;
  [[nodiscard]] std::size_t guaranteed_correctable() const override { return entries_; }
  /// One entry per stuck cell: no pattern of more than N faults survives.
  [[nodiscard]] std::size_t max_tolerable() const override { return entries_; }
  [[nodiscard]] bool can_tolerate(std::span<const FaultCell> faults,
                                  std::size_t window_bits) const override;
  [[nodiscard]] std::optional<EncodeResult> encode(
      std::span<const std::uint8_t> data, std::size_t window_bits,
      std::span<const FaultCell> faults) const override;
  [[nodiscard]] InlineBytes decode(std::span<const std::uint8_t> raw,
                                                 std::size_t window_bits, std::uint64_t meta,
                                                 std::span<const FaultCell> faults) const override;

 private:
  std::size_t entries_;
  std::string name_;
};

}  // namespace pcmsim
