// Aegis (Fan et al., MICRO 2013): partition-based stuck-at recovery using a
// two-dimensional cell layout.
//
// Aegis 17x31 maps cell i (< 527) onto the grid point (x, y) = (i mod 17,
// i mod 31) — unique by CRT since gcd(17, 31) = 1 — and partitions the line
// along one of 32 "directions": slope s in [0, 31) puts cell i in group
// (y + s*x) mod 31 (31 groups), and the vertical direction groups by x
// (17 groups). Any two distinct cells collide in at most ONE direction, so f
// faults rule out at most f(f-1)/2 of the 32 directions: 8 faults are always
// separable, and far more in the common case — with fewer metadata bits than
// SAFER (5-bit direction + 31 flip bits = 36).
#pragma once

#include <string>

#include "ecc/scheme.hpp"

namespace pcmsim {

class AegisScheme final : public HardErrorScheme {
 public:
  /// Grid dimensions; the paper's configuration for 512-bit lines is 17x31.
  AegisScheme(std::size_t rows = 17, std::size_t cols = 31);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t metadata_bits() const override;
  [[nodiscard]] std::size_t guaranteed_correctable() const override;
  /// One fault per group, and no direction has more than max(rows, cols).
  [[nodiscard]] std::size_t max_tolerable() const override;
  [[nodiscard]] bool can_tolerate(std::span<const FaultCell> faults,
                                  std::size_t window_bits) const override;
  [[nodiscard]] std::optional<EncodeResult> encode(
      std::span<const std::uint8_t> data, std::size_t window_bits,
      std::span<const FaultCell> faults) const override;
  [[nodiscard]] InlineBytes decode(std::span<const std::uint8_t> raw,
                                                 std::size_t window_bits, std::uint64_t meta,
                                                 std::span<const FaultCell> faults) const override;

  /// Direction index separating all faults (cols = vertical), or nullopt.
  [[nodiscard]] std::optional<unsigned> find_direction(std::span<const FaultCell> faults) const;

  /// Group of cell `pos` under direction `dir` (dir == cols() means vertical).
  [[nodiscard]] std::size_t group_of(std::size_t pos, unsigned dir) const;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::string name_;
};

}  // namespace pcmsim
