// Differential reference-model test for the word-level PcmArray write kernel.
//
// ReferenceArray is a deliberately naive, definitional implementation: one
// cell per vector slot, one branchy loop per bit, faults born inline. It
// replays the exact constructor sampling and per-bit RNG draw order the real
// array uses (draws happen only at fault birth, ascending bit order within a
// write), so after any operation sequence the two must agree on every value,
// stuck flag, endurance counter, result field, and global tally — bit for
// bit. Any divergence means the kernel's wear-out detection (the died mask
// the endurance decrement returns), its birth order, or its masked
// XOR/popcount algebra is wrong.
#include "pcm/array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace pcmsim {
namespace {

/// Definitional per-cell model of PcmArray. Mirrors the documented contract,
/// not the implementation: differential write, one endurance unit per pulse,
/// stuck-at latch on exhaustion with an RNG draw for the latched value.
class ReferenceArray {
 public:
  explicit ReferenceArray(const PcmDeviceConfig& config) : config_(config), rng_(config.seed) {
    const std::size_t cells = config.lines * kLineTotalBits;
    value_.assign(cells, 0);
    stuck_.assign(cells, 0);
    endurance_.resize(cells);
    for (auto& e : endurance_) {
      const double sample =
          rng_.next_lognormal_mean_cov(config.endurance_mean, config.endurance_cov);
      const double clamped = std::clamp(
          sample, 1.0, static_cast<double>(std::numeric_limits<std::uint16_t>::max()));
      e = static_cast<std::uint16_t>(clamped);
    }
  }

  PcmWriteResult write_range(std::size_t line, std::size_t bit_off,
                             std::span<const std::uint8_t> data, std::size_t nbits) {
    PcmWriteResult result;
    for (std::size_t i = 0; i < nbits; ++i) {
      const bool want = (data[i / 8] >> (i % 8)) & 1u;
      const std::size_t idx = line * kLineTotalBits + bit_off + i;
      if (stuck_[idx]) {
        if (value_[idx] != static_cast<std::uint8_t>(want)) ++result.mismatched_bits;
        continue;
      }
      if (value_[idx] == static_cast<std::uint8_t>(want)) continue;
      ++result.programmed_bits;
      ++total_programmed_;
      if (want) {
        ++total_set_;
      } else {
        ++total_reset_;
      }
      if (endurance_[idx] > 1) {
        --endurance_[idx];
        value_[idx] = want;
        continue;
      }
      endurance_[idx] = 0;
      stuck_[idx] = 1;
      ++result.new_faults;
      ++total_faults_;
      const bool stuck_value = !rng_.next_bool(config_.stuck_at_reset_fraction);
      value_[idx] = stuck_value;
      if (stuck_value != want) ++result.mismatched_bits;
    }
    return result;
  }

  void inject_fault(std::size_t line, std::size_t bit, bool stuck_value) {
    const std::size_t idx = line * kLineTotalBits + bit;
    if (!stuck_[idx]) {
      stuck_[idx] = 1;
      ++total_faults_;
    }
    endurance_[idx] = 0;
    value_[idx] = stuck_value;
  }

  [[nodiscard]] bool read_bit(std::size_t line, std::size_t bit) const {
    return value_[line * kLineTotalBits + bit] != 0;
  }
  [[nodiscard]] bool is_stuck(std::size_t line, std::size_t bit) const {
    return stuck_[line * kLineTotalBits + bit] != 0;
  }
  [[nodiscard]] std::uint32_t remaining_endurance(std::size_t line, std::size_t bit) const {
    return endurance_[line * kLineTotalBits + bit];
  }
  [[nodiscard]] std::uint64_t total_programmed_bits() const { return total_programmed_; }
  [[nodiscard]] std::uint64_t total_faults() const { return total_faults_; }
  [[nodiscard]] std::uint64_t total_set_pulses() const { return total_set_; }
  [[nodiscard]] std::uint64_t total_reset_pulses() const { return total_reset_; }

 private:
  PcmDeviceConfig config_;
  std::vector<std::uint8_t> value_;
  std::vector<std::uint8_t> stuck_;
  std::vector<std::uint16_t> endurance_;
  Rng rng_;
  std::uint64_t total_programmed_ = 0;
  std::uint64_t total_faults_ = 0;
  std::uint64_t total_set_ = 0;
  std::uint64_t total_reset_ = 0;
};

void expect_same_state(const PcmArray& real, const ReferenceArray& ref, std::size_t lines) {
  for (std::size_t line = 0; line < lines; ++line) {
    for (std::size_t bit = 0; bit < kLineTotalBits; ++bit) {
      ASSERT_EQ(real.read_bit(line, bit), ref.read_bit(line, bit))
          << "value mismatch at line " << line << " bit " << bit;
      ASSERT_EQ(real.is_stuck(line, bit), ref.is_stuck(line, bit))
          << "stuck mismatch at line " << line << " bit " << bit;
      ASSERT_EQ(real.remaining_endurance(line, bit), ref.remaining_endurance(line, bit))
          << "endurance mismatch at line " << line << " bit " << bit;
    }
  }
  EXPECT_EQ(real.total_programmed_bits(), ref.total_programmed_bits());
  EXPECT_EQ(real.total_faults(), ref.total_faults());
  EXPECT_EQ(real.total_set_pulses(), ref.total_set_pulses());
  EXPECT_EQ(real.total_reset_pulses(), ref.total_reset_pulses());
}

/// Drives both models through an identical randomized operation sequence and
/// checks agreement after every operation, full state periodically.
/// With `suffix_ranges`, a fifth of the writes cover [random, line end), so
/// ranges that end at the array's last cell (on the last line) recur.
void run_differential(const PcmDeviceConfig& cfg, std::size_t ops, bool with_injects,
                      std::uint64_t driver_seed, bool suffix_ranges = false) {
  PcmArray real(cfg);
  ReferenceArray ref(cfg);
  expect_same_state(real, ref, cfg.lines);

  Rng driver(driver_seed);
  std::vector<std::uint8_t> data(kLineTotalBits / 8);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t line = driver.next_below(cfg.lines);
    if (with_injects && driver.next_below(16) == 0) {
      const std::size_t bit = driver.next_below(kLineTotalBits);
      const bool v = driver.next_bool(0.5);
      real.inject_fault(line, bit, v);
      ref.inject_fault(line, bit, v);
    } else {
      // Mix of range shapes: aligned full-block (the write path's steady
      // state), arbitrary unaligned, full-line including the ECC area, and
      // optionally suffixes ending at the line's last cell.
      std::size_t bit_off = 0;
      std::size_t nbits = 0;
      switch (driver.next_below(suffix_ranges ? 5 : 4)) {
        case 0:
          nbits = kBlockBits;
          break;
        case 1:
          nbits = kLineTotalBits;
          break;
        case 4:
          bit_off = driver.next_below(kLineTotalBits);
          nbits = kLineTotalBits - bit_off;
          break;
        default:
          bit_off = driver.next_below(kLineTotalBits);
          nbits = 1 + driver.next_below(kLineTotalBits - bit_off);
          break;
      }
      for (auto& b : data) b = static_cast<std::uint8_t>(driver.next_below(256));
      const PcmWriteResult r_real = real.write_range(line, bit_off, data, nbits);
      const PcmWriteResult r_ref = ref.write_range(line, bit_off, data, nbits);
      ASSERT_EQ(r_real.programmed_bits, r_ref.programmed_bits) << "op " << op;
      ASSERT_EQ(r_real.new_faults, r_ref.new_faults) << "op " << op;
      ASSERT_EQ(r_real.mismatched_bits, r_ref.mismatched_bits) << "op " << op;
    }
    EXPECT_EQ(real.total_programmed_bits(), ref.total_programmed_bits()) << "op " << op;
    EXPECT_EQ(real.total_faults(), ref.total_faults()) << "op " << op;
    if (op % 64 == 0) expect_same_state(real, ref, cfg.lines);
  }
  expect_same_state(real, ref, cfg.lines);
}

TEST(PcmArrayReference, FaultFreeFastPathIsBitIdentical) {
  // Endurance far above the write count: no cell wears out, and the models
  // must still agree cell for cell.
  PcmDeviceConfig cfg;
  cfg.lines = 4;
  cfg.endurance_mean = 5000;
  cfg.endurance_cov = 0.2;
  cfg.seed = 11;
  run_differential(cfg, 600, /*with_injects=*/false, /*driver_seed=*/101);
}

TEST(PcmArrayReference, WearOutAndFaultBirthMatchDefinitionalModel) {
  // Endurance low enough that cells wear out mid-run: exercises fault
  // births and their RNG draw order.
  PcmDeviceConfig cfg;
  cfg.lines = 6;
  cfg.endurance_mean = 40;
  cfg.endurance_cov = 0.3;
  cfg.seed = 7;
  run_differential(cfg, 2500, /*with_injects=*/false, /*driver_seed=*/202);
}

TEST(PcmArrayReference, InjectedFaultsInterleavedWithWrites) {
  // inject_fault invalidates the placement caches and zeroes a cell's
  // endurance outside the write kernel; interleaving it with wear-out writes
  // must keep both models in lockstep.
  PcmDeviceConfig cfg;
  cfg.lines = 5;
  cfg.endurance_mean = 60;
  cfg.endurance_cov = 0.25;
  cfg.seed = 23;
  run_differential(cfg, 2000, /*with_injects=*/true, /*driver_seed=*/303);
}

TEST(PcmArrayReference, NearDeadCellsMatchDefinitionalModel) {
  // Every cell starts with endurance 2, so most pulses kill a cell: many
  // births per 64-bit chunk, full-line ranges reaching the ECC area, and
  // suffix ranges ending at the array's last cell, all under random data.
  PcmDeviceConfig cfg;
  cfg.lines = 24;
  cfg.endurance_mean = 2;
  cfg.endurance_cov = 0.0;
  cfg.seed = 31;
  run_differential(cfg, 1500, /*with_injects=*/false, /*driver_seed=*/404,
                   /*suffix_ranges=*/true);
  run_differential(cfg, 1500, /*with_injects=*/true, /*driver_seed=*/505,
                   /*suffix_ranges=*/true);
}

TEST(PcmArrayReference, WholeLineWearsOutInOneWrite) {
  // Endurance 2 everywhere: the first full-line write (all ones) leaves
  // every cell at 1, the second (all zeros) kills all 576 of them at once —
  // 64 births in every chunk, the ECC area and the array's last cell
  // included — and the RNG draws must follow ascending bit order.
  PcmDeviceConfig cfg;
  cfg.lines = 3;
  cfg.endurance_mean = 2;
  cfg.endurance_cov = 0.0;
  cfg.seed = 9;
  PcmArray real(cfg);
  ReferenceArray ref(cfg);
  const std::vector<std::uint8_t> ones(kLineTotalBits / 8, 0xFF);
  const std::vector<std::uint8_t> zeros(kLineTotalBits / 8, 0x00);
  const std::size_t last = cfg.lines - 1;
  for (const auto* data : {&ones, &zeros}) {
    const PcmWriteResult r_real = real.write_range(last, 0, *data, kLineTotalBits);
    const PcmWriteResult r_ref = ref.write_range(last, 0, *data, kLineTotalBits);
    EXPECT_EQ(r_real.programmed_bits, r_ref.programmed_bits);
    EXPECT_EQ(r_real.new_faults, r_ref.new_faults);
    EXPECT_EQ(r_real.mismatched_bits, r_ref.mismatched_bits);
    expect_same_state(real, ref, cfg.lines);
  }
  EXPECT_EQ(real.total_faults(), kLineTotalBits);
  EXPECT_TRUE(real.is_stuck(last, kLineTotalBits - 1));
  EXPECT_EQ(real.data_stuck_count(last), kBlockBits);
  // A fully stuck line programs nothing; every difference is a mismatch.
  const PcmWriteResult r = real.write_range(last, 0, ones, kLineTotalBits);
  EXPECT_EQ(r.programmed_bits, 0u);
  EXPECT_EQ(r.new_faults, 0u);
  EXPECT_EQ(r.mismatched_bits, ref.write_range(last, 0, ones, kLineTotalBits).mismatched_bits);
}

}  // namespace
}  // namespace pcmsim
