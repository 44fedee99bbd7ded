// SAFER: Stuck-At-Fault Error Recovery (Seong et al., MICRO 2010).
//
// SAFER-32 partitions the 512-bit line into 32 groups by selecting 5 of the
// 9 cell-address bits; two faulty cells land in different groups whenever
// their addresses differ in at least one selected bit. Each group stores data
// either plain or inverted (one flip bit per group) so a single stuck cell per
// group can always be matched to the data. 6 faults are separable for every
// pattern; up to 32 probabilistically.
//
// Two field-selection strategies are provided:
//  * kGreedy (default) — the hardware algorithm: faults are processed in
//    order, and when a new fault collides with an earlier one, the lowest
//    address bit distinguishing the pair is appended to the selection. This
//    separates fields+1 faults deterministically and degrades quickly past
//    ~8, matching SAFER's published behaviour (and Fig 9's SAFER < Aegis).
//  * kExhaustive — searches all C(address_bits, fields) selections; an
//    idealized upper bound used by the ablation benches.
#pragma once

#include <string>
#include <vector>

#include "ecc/scheme.hpp"

namespace pcmsim {

class SaferScheme final : public HardErrorScheme {
 public:
  enum class Strategy : std::uint8_t { kGreedy, kExhaustive };

  /// `partitions` must be a power of two (32 for the paper's SAFER-32).
  explicit SaferScheme(std::size_t partitions = 32, Strategy strategy = Strategy::kGreedy);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t metadata_bits() const override;
  [[nodiscard]] std::size_t guaranteed_correctable() const override { return fields_ + 1; }
  /// Each of the P groups holds at most one fault.
  [[nodiscard]] std::size_t max_tolerable() const override { return partitions_; }
  [[nodiscard]] bool can_tolerate(std::span<const FaultCell> faults,
                                  std::size_t window_bits) const override;
  [[nodiscard]] std::optional<EncodeResult> encode(
      std::span<const std::uint8_t> data, std::size_t window_bits,
      std::span<const FaultCell> faults) const override;
  [[nodiscard]] InlineBytes decode(std::span<const std::uint8_t> raw,
                                                 std::size_t window_bits, std::uint64_t meta,
                                                 std::span<const FaultCell> faults) const override;

  /// Finds a field selection separating all faults; exposed for tests.
  /// Returns the selected address-bit indices, or nullopt if none separates.
  [[nodiscard]] std::optional<std::vector<unsigned>> find_partitioning(
      std::span<const FaultCell> faults, std::size_t window_bits) const;

 private:
  [[nodiscard]] static unsigned address_bits_for(std::size_t window_bits);
  [[nodiscard]] unsigned fields_for(std::size_t window_bits) const;
  [[nodiscard]] std::optional<std::vector<unsigned>> greedy_partitioning(
      std::span<const FaultCell> faults, std::size_t window_bits) const;
  [[nodiscard]] std::optional<std::vector<unsigned>> exhaustive_partitioning(
      std::span<const FaultCell> faults, std::size_t window_bits) const;

  std::size_t partitions_;
  unsigned fields_;  // log2(partitions)
  Strategy strategy_;
  std::string name_;
};

}  // namespace pcmsim
