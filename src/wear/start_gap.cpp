#include "wear/start_gap.hpp"

#include "common/assert.hpp"

namespace pcmsim {

StaticRandomizer::StaticRandomizer(std::uint64_t n, std::uint64_t seed) : n_(n) {
  expects(n > 0, "randomizer universe must be non-empty");
  unsigned total_bits = 1;
  while ((std::uint64_t{1} << total_bits) < n) ++total_bits;
  if (total_bits % 2 != 0) ++total_bits;  // Feistel needs an even split
  half_bits_ = total_bits / 2;
  std::uint64_t sm = seed ^ 0xfe157e1fe157e1ull;
  for (auto& k : keys_) k = splitmix64(sm);
}

std::uint64_t StaticRandomizer::feistel(std::uint64_t x, bool forward) const {
  const std::uint64_t half_mask = (std::uint64_t{1} << half_bits_) - 1;
  std::uint64_t left = (x >> half_bits_) & half_mask;
  std::uint64_t right = x & half_mask;
  for (int r = 0; r < 4; ++r) {
    const std::uint64_t key = forward ? keys_[r] : keys_[3 - r];
    const std::uint64_t f = mix64(right ^ key) & half_mask;
    const std::uint64_t new_right = left ^ f;
    left = right;
    right = new_right;
  }
  // The swap structure above is an involution-friendly unbalanced form; undo
  // the final swap so forward/backward are inverses.
  return (right << half_bits_) | left;
}

std::uint64_t StaticRandomizer::map(std::uint64_t x) const {
  expects(x < n_, "randomizer input out of range");
  std::uint64_t y = x;
  do {
    y = feistel(y, true);
  } while (y >= n_);  // cycle-walking keeps the permutation closed over [0, n)
  return y;
}

std::uint64_t StaticRandomizer::unmap(std::uint64_t y) const {
  expects(y < n_, "randomizer input out of range");
  std::uint64_t x = y;
  do {
    x = feistel(x, false);
  } while (x >= n_);
  return x;
}

StartGap::StartGap(std::uint64_t logical_lines, std::uint64_t gap_interval, bool randomize,
                   std::uint64_t seed)
    : n_(logical_lines), interval_(gap_interval), gap_(logical_lines) {
  expects(logical_lines > 0, "StartGap needs at least one line");
  expects(gap_interval > 0, "gap interval must be positive");
  if (randomize) {
    expects(logical_lines <= (std::uint64_t{1} << 32),
            "StartGap randomization tables at most 2^32 lines");
    const StaticRandomizer randomizer(logical_lines, seed);
    table_.resize(logical_lines);
    for (std::uint64_t la = 0; la < logical_lines; ++la) {
      table_[la] = static_cast<std::uint32_t>(randomizer.map(la));
    }
  }
}

std::uint64_t StartGap::map(std::uint64_t logical) const {
  expects(logical < n_, "logical line out of range");
  const std::uint64_t la = table_.empty() ? logical : table_[logical];
  // Qureshi's formulation: rotate over the N *logical* slots, then skip the
  // gap with a non-wrapping +1 (PA ranges over [0, N] = all physical slots).
  // Both la and start_ are < n_, so the mod is one conditional subtract.
  std::uint64_t pa = la + start_;
  if (pa >= n_) pa -= n_;
  if (pa >= gap_) pa += 1;
  return pa;
}

std::optional<StartGap::GapMove> StartGap::on_write() {
  if (++writes_since_move_ < interval_) return std::nullopt;
  writes_since_move_ = 0;
  ++moves_;
  const std::uint64_t to = gap_;
  const std::uint64_t from = gap_ == 0 ? n_ : gap_ - 1;
  gap_ = from;
  if (to == 0) {
    // Gap wrapped from the top: one full revolution completed.
    start_ = (start_ + 1) % n_;
  }
  return GapMove{from, to};
}

}  // namespace pcmsim
