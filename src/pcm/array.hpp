// Bit-accurate PCM cell array with per-cell endurance and stuck-at faults.
//
// Models the behaviour the paper's mechanisms depend on:
//  * the chip-level read-modify-write circuit performs differential writes —
//    only cells whose stored value differs from the new value are programmed;
//  * every programming pulse consumes one endurance cycle of that cell;
//  * a cell whose endurance is exhausted becomes permanently stuck at either
//    RESET (0) or SET (1); programming it has no effect (hard error);
//  * hard errors are detectable via the verify read the RMW circuit performs.
//
// Storage is struct-of-arrays: value and stuck flags in packed 64-bit words,
// remaining endurance in uint16 (sufficient for the scaled endurance used in
// lifetime studies; construction rejects configurations that would overflow).
//
// The write kernel is word-level and exact: value updates are one masked XOR
// store per 64-bit word, SET/RESET pulses are tallied with popcounts, and the
// endurance update is a masked u16 lane decrement from common/simd.hpp that
// also returns the programmed lanes that reached 0 (the endurance array
// carries 64 zeroed tail lanes so the kernel never reads past the
// allocation). Since a live cell always has endurance >= 1, those lanes are
// exactly the cells that wear out on this write; per-bit work and RNG draws
// happen only at those births, in ascending bit order, which keeps every
// write bit-identical to the definitional per-bit model by construction.
// See EXPERIMENTS.md "Write-path performance" for the argument and the
// bit-identity verification procedure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "pcm/config.hpp"

namespace pcmsim {

/// Outcome of one differential write to a cell range.
struct PcmWriteResult {
  std::size_t programmed_bits = 0;  ///< cells actually pulsed (post-DW bit flips)
  std::size_t new_faults = 0;       ///< cells that wore out during this write
  std::size_t mismatched_bits = 0;  ///< stuck cells whose value differs from the data
};

class PcmArray {
 public:
  explicit PcmArray(const PcmDeviceConfig& config);

  [[nodiscard]] std::size_t lines() const { return config_.lines; }
  [[nodiscard]] const PcmDeviceConfig& config() const { return config_; }

  /// Stored value of bit `bit` of line `line` (stuck cells return their stuck value).
  [[nodiscard]] bool read_bit(std::size_t line, std::size_t bit) const;

  /// Reads `nbits` starting at `bit_off` into `out` (LSB-first packed bytes).
  void read_range(std::size_t line, std::size_t bit_off, std::size_t nbits,
                  std::span<std::uint8_t> out) const;

  /// Differential write of `nbits` (LSB-first packed in `data`) at `bit_off`.
  /// Only differing, non-stuck cells are programmed; each programming pulse
  /// consumes endurance and may create a new stuck-at fault.
  PcmWriteResult write_range(std::size_t line, std::size_t bit_off,
                             std::span<const std::uint8_t> data, std::size_t nbits);

  /// True when the cell is permanently stuck.
  [[nodiscard]] bool is_stuck(std::size_t line, std::size_t bit) const;

  /// Number of stuck cells in [bit_off, bit_off + nbits).
  [[nodiscard]] std::size_t count_stuck(std::size_t line, std::size_t bit_off,
                                        std::size_t nbits) const;

  /// Positions (relative to line start) of stuck cells in the given range.
  /// Test-only convenience (allocates); hot paths use stuck_positions_into().
  [[nodiscard]] std::vector<std::uint16_t> stuck_positions(std::size_t line,
                                                           std::size_t bit_off,
                                                           std::size_t nbits) const;

  /// Allocation-free variant: writes positions into `out` (which must hold
  /// at least count_stuck() entries) and returns how many were written.
  std::size_t stuck_positions_into(std::size_t line, std::size_t bit_off, std::size_t nbits,
                                   std::span<std::uint16_t> out) const;

  /// Remaining endurance of one cell (0 when stuck).
  [[nodiscard]] std::uint32_t remaining_endurance(std::size_t line, std::size_t bit) const;

  /// Forces a cell into the stuck state (fault injection for tests/Monte Carlo).
  void inject_fault(std::size_t line, std::size_t bit, bool stuck_value);

  /// Stuck cells in the line's 512-bit data area. O(1): maintained eagerly at
  /// fault birth, which is what makes window placement O(1) on clean lines.
  [[nodiscard]] std::size_t data_stuck_count(std::size_t line) const {
    return data_stuck_[line];
  }

  /// Per-byte stuck-count prefix sums over the data area: entry `b` is the
  /// number of stuck cells in bytes [0, b), so a (possibly wrapping) window's
  /// fault count is two subtractions. Built lazily, cached until the line's
  /// fault set changes (fault birth or inject_fault).
  [[nodiscard]] std::span<const std::uint16_t> byte_stuck_prefix(std::size_t line) const;

  /// Total programming pulses issued to this array since construction.
  [[nodiscard]] std::uint64_t total_programmed_bits() const { return total_programmed_; }
  /// Total cells that have worn out since construction.
  [[nodiscard]] std::uint64_t total_faults() const { return total_faults_; }
  /// SET pulses (0 -> 1: long, low-current crystallization).
  [[nodiscard]] std::uint64_t total_set_pulses() const { return total_set_; }
  /// RESET pulses (1 -> 0: short, high-current melt — the wear-out driver).
  [[nodiscard]] std::uint64_t total_reset_pulses() const { return total_reset_; }

  /// Write energy in picojoules under a simple pulse model (energies per bit;
  /// defaults follow the SET/RESET asymmetry of Lee et al. ISCA'09 scaled to
  /// the Table II pulse widths: RESET is short but high-power).
  [[nodiscard]] double write_energy_pj(double set_pj = 13.5, double reset_pj = 19.2) const {
    return static_cast<double>(total_set_) * set_pj +
           static_cast<double>(total_reset_) * reset_pj;
  }

 private:
  [[nodiscard]] std::size_t cell_index(std::size_t line, std::size_t bit) const;
  [[nodiscard]] bool get_value(std::size_t idx) const;
  void set_value(std::size_t idx, bool v);
  [[nodiscard]] bool get_stuck(std::size_t idx) const;
  void set_stuck(std::size_t idx);

  /// Cache maintenance at fault birth (write wear-out or inject_fault).
  void on_fault_born(std::size_t line, std::size_t bit);

  PcmDeviceConfig config_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> stuck_;
  std::vector<std::uint16_t> endurance_;  ///< cells + 64 zeroed tail lanes (SIMD slack)
  std::vector<std::uint16_t> data_stuck_;   ///< per line, exact data-area count
  mutable std::vector<std::uint16_t> prefix_;        ///< lazy, lines x (kBlockBytes+1)
  mutable std::vector<std::uint8_t> prefix_valid_;   ///< per line
  Rng rng_;
  std::uint64_t total_programmed_ = 0;
  std::uint64_t total_faults_ = 0;
  std::uint64_t total_set_ = 0;
  std::uint64_t total_reset_ = 0;
};

}  // namespace pcmsim
