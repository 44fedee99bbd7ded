#include "ecc/aegis.hpp"

#include <algorithm>
#include <bitset>
#include <numeric>
#include <vector>

#include "common/assert.hpp"

namespace pcmsim {

AegisScheme::AegisScheme(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
  expects(rows >= 2 && cols >= 2, "grid must be at least 2x2");
  expects(std::gcd(rows, cols) == 1, "grid dimensions must be coprime (CRT mapping)");
  expects(rows * cols >= kBlockBits, "grid must cover a 512-bit line");
  // Either direction family may win, so its flip bits (one per group: cols
  // for slopes, rows for vertical) plus the 6-bit direction id must fit.
  expects(std::max(rows, cols) <= 58, "flip bits + direction id must fit the 64-bit budget");
  name_ = "Aegis-" + std::to_string(rows) + "x" + std::to_string(cols);
}

std::size_t AegisScheme::metadata_bits() const {
  // Direction id (cols+1 choices -> 6 bits is enough for 17x31) + one flip
  // bit per group; slope directions have `cols` groups, vertical has `rows`.
  return 6 + std::max(rows_, cols_);
}

std::size_t AegisScheme::guaranteed_correctable() const {
  // f faults invalidate at most f(f-1)/2 of the (cols+1) directions.
  std::size_t f = 1;
  while ((f + 1) * f / 2 <= cols_) ++f;
  return f;
}

std::size_t AegisScheme::max_tolerable() const { return std::max(rows_, cols_); }

std::size_t AegisScheme::group_of(std::size_t pos, unsigned dir) const {
  const std::size_t x = pos % rows_;
  const std::size_t y = pos % cols_;
  if (dir == cols_) return x;  // vertical direction
  return (y + static_cast<std::size_t>(dir) * x) % cols_;
}

std::optional<unsigned> AegisScheme::find_direction(std::span<const FaultCell> faults) const {
  for (unsigned dir = 0; dir <= cols_; ++dir) {
    const std::size_t groups = (dir == cols_) ? rows_ : cols_;
    if (faults.size() > groups) continue;
    std::bitset<kBlockBits> seen;  // group ids are < max(rows, cols) <= 58
    bool ok = true;
    for (const auto& f : faults) {
      const std::size_t g = group_of(f.pos, dir);
      if (seen.test(g)) {
        ok = false;
        break;
      }
      seen.set(g);
    }
    if (ok) return dir;
  }
  return std::nullopt;
}

bool AegisScheme::can_tolerate(std::span<const FaultCell> faults,
                               std::size_t window_bits) const {
  expects(window_bits <= rows_ * cols_, "window exceeds the Aegis grid");
  if (faults.size() <= 1) return true;
  return find_direction(faults).has_value();
}

std::optional<HardErrorScheme::EncodeResult> AegisScheme::encode(
    std::span<const std::uint8_t> data, std::size_t window_bits,
    std::span<const FaultCell> faults) const {
  expects(window_bits <= rows_ * cols_, "window exceeds the Aegis grid");
  const auto dir = find_direction(faults);
  if (!dir) return std::nullopt;

  const std::size_t groups = (*dir == cols_) ? rows_ : cols_;
  std::vector<std::uint8_t> flip(groups, 0);
  for (const auto& f : faults) {
    flip[group_of(f.pos, *dir)] = get_bit(data, f.pos) != f.stuck_value ? 1 : 0;
  }

  EncodeResult out;
  out.image.assign((window_bits + 7) / 8, 0);
  for (std::size_t i = 0; i < window_bits; ++i) {
    set_bit(out.image, i, get_bit(data, i) ^ (flip[group_of(i, *dir)] != 0));
  }
  std::uint64_t meta = *dir & 0x3Fu;
  for (std::size_t g = 0; g < groups; ++g) {
    if (flip[g]) meta |= 1ull << (6 + g);
  }
  out.meta = meta;
  return out;
}

InlineBytes AegisScheme::decode(std::span<const std::uint8_t> raw,
                                              std::size_t window_bits, std::uint64_t meta,
                                              std::span<const FaultCell> /*faults*/) const {
  const auto dir = static_cast<unsigned>(meta & 0x3Fu);
  expects(dir <= cols_, "corrupt Aegis metadata: bad direction");
  InlineBytes out;
  out.assign((window_bits + 7) / 8, 0);
  for (std::size_t i = 0; i < window_bits; ++i) {
    const bool flip = (meta >> (6 + group_of(i, dir))) & 1u;
    set_bit(out, i, get_bit(raw, i) ^ flip);
  }
  return out;
}

}  // namespace pcmsim
