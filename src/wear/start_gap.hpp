// Start-Gap inter-line wear-leveling (Qureshi et al., MICRO 2009).
//
// One spare "gap" line is kept in the physical region; every `gap_interval`
// writes the gap migrates one slot (copying its neighbour's content), and a
// start pointer advances each full revolution. The logical->physical mapping
// is pure arithmetic — exactly the hardware formulation:
//
//   pa = (la + start) mod P;   if (pa >= gap) pa = (pa + 1) mod P
//
// An optional static randomization layer (4-round Feistel network with
// cycle-walking) decorrelates logically-adjacent hot lines first, as the
// Start-Gap paper recommends for adversarial/clustered write patterns. The
// permutation is static, so StartGap tables it once at construction and
// map() is one load plus the rotate-and-skip arithmetic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace pcmsim {

/// Invertible pseudo-random permutation over [0, n) (Feistel + cycle-walk).
class StaticRandomizer {
 public:
  StaticRandomizer(std::uint64_t n, std::uint64_t seed);

  [[nodiscard]] std::uint64_t map(std::uint64_t x) const;
  [[nodiscard]] std::uint64_t unmap(std::uint64_t y) const;
  [[nodiscard]] std::uint64_t universe() const { return n_; }

 private:
  [[nodiscard]] std::uint64_t feistel(std::uint64_t x, bool forward) const;

  std::uint64_t n_;
  unsigned half_bits_;  // each Feistel half is this wide
  std::uint64_t keys_[4]{};
};

class StartGap {
 public:
  /// Manages `logical_lines` lines over `logical_lines + 1` physical slots.
  /// `gap_interval` is psi (the paper of record uses 100).
  StartGap(std::uint64_t logical_lines, std::uint64_t gap_interval = 100,
           bool randomize = true, std::uint64_t seed = 0);

  [[nodiscard]] std::uint64_t logical_lines() const { return n_; }
  [[nodiscard]] std::uint64_t physical_lines() const { return n_ + 1; }

  /// Current logical -> physical mapping.
  [[nodiscard]] std::uint64_t map(std::uint64_t logical) const;

  /// One gap migration: content of `from` must be copied to `to` by the owner
  /// of the storage (which costs one line write of wear).
  struct GapMove {
    std::uint64_t from;
    std::uint64_t to;
  };

  /// Records one serviced write; returns a move when the gap must migrate.
  [[nodiscard]] std::optional<GapMove> on_write();

  [[nodiscard]] std::uint64_t gap() const { return gap_; }
  [[nodiscard]] std::uint64_t start() const { return start_; }
  [[nodiscard]] std::uint64_t total_moves() const { return moves_; }

 private:
  std::uint64_t n_;
  std::uint64_t interval_;
  std::vector<std::uint32_t> table_;  ///< logical -> randomized slot; empty: identity
  std::uint64_t start_ = 0;
  std::uint64_t gap_;
  std::uint64_t writes_since_move_ = 0;
  std::uint64_t moves_ = 0;
};

}  // namespace pcmsim
