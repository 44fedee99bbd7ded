#include "pcm/array.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/assert.hpp"
#include "common/simd.hpp"

namespace pcmsim {

namespace {

/// Extracts 64 bits starting at absolute bit position `pos` from packed words.
/// Bits past `end` read as zero.
std::uint64_t extract64(const std::vector<std::uint64_t>& words, std::size_t pos) {
  const std::size_t w = pos / 64;
  const unsigned sh = static_cast<unsigned>(pos % 64);
  std::uint64_t v = words[w] >> sh;
  if (sh != 0 && w + 1 < words.size()) v |= words[w + 1] << (64 - sh);
  return v;
}

/// Loads up to 64 bits (LSB-first packed) from a byte buffer at bit offset `pos`.
/// Bytes past the end of `data` read as zero.
std::uint64_t load_bits64(std::span<const std::uint8_t> data, std::size_t pos, unsigned n) {
  std::uint64_t v = 0;
  const std::size_t first_byte = pos / 8;
  const unsigned sh = static_cast<unsigned>(pos % 8);
  // Read enough bytes to cover n bits after the shift.
  const std::size_t need = (sh + n + 7) / 8;
  if (std::endian::native == std::endian::little && need <= 8 && first_byte + 8 <= data.size()) {
    // One word load: on a little-endian host byte i lands in bits 8i..8i+7,
    // exactly the LSB-first packing the byte loop below builds.
    std::memcpy(&v, data.data() + first_byte, 8);
  } else {
    for (std::size_t i = 0; i < need && first_byte + i < data.size(); ++i) {
      v |= static_cast<std::uint64_t>(data[first_byte + i]) << (8 * i);
    }
  }
  v >>= sh;
  if (n < 64) v &= (n == 0) ? 0 : ((~0ull) >> (64 - n));
  return v;
}

}  // namespace

PcmArray::PcmArray(const PcmDeviceConfig& config) : config_(config), rng_(config.seed) {
  expects(config.lines > 0, "PCM array needs at least one line");
  expects(config.endurance_mean > 0, "endurance mean must be positive");
  // uint16 endurance storage: with lognormal CoV <= 0.5 the +8 sigma tail of
  // a 1e4-mean distribution stays well below 65535; reject configs that risk
  // overflow instead of silently clamping hot cells.
  expects(config.endurance_mean * (1.0 + 8.0 * config.endurance_cov) <
              static_cast<double>(std::numeric_limits<std::uint16_t>::max()),
          "scaled endurance too large for uint16 storage; lower endurance_mean");

  const std::size_t cells = config.lines * kLineTotalBits;
  static_assert(kLineTotalBits % 64 == 0, "lines must pack whole 64-bit words");
  values_.assign(cells / 64, 0);
  stuck_.assign(cells / 64, 0);
  // 64 zeroed tail lanes beyond the last cell: the 64-lane masked-decrement
  // kernel loads and rewrites whole lane groups, so a write ending at the
  // array's final cell may touch (but never change, nor report as worn out)
  // lanes past it. Sampling stops at `cells` so the RNG stream is identical
  // to the unpadded layout.
  endurance_.resize(cells + 64);
  for (std::size_t i = 0; i < cells; ++i) {
    const double sample = rng_.next_lognormal_mean_cov(config.endurance_mean,
                                                       config.endurance_cov);
    const double clamped = std::clamp(
        sample, 1.0, static_cast<double>(std::numeric_limits<std::uint16_t>::max()));
    endurance_[i] = static_cast<std::uint16_t>(clamped);
  }

  data_stuck_.assign(config.lines, 0);
  prefix_valid_.assign(config.lines, 0);
  // Eager (~130 B/line): building it lazily would put one allocation on the
  // steady-state write path, which tests/alloc_regression_test.cpp forbids.
  prefix_.assign(config.lines * (kBlockBytes + 1), 0);
}

std::size_t PcmArray::cell_index(std::size_t line, std::size_t bit) const {
  expects(line < config_.lines, "line out of range");
  expects(bit < kLineTotalBits, "bit out of range");
  return line * kLineTotalBits + bit;
}

bool PcmArray::get_value(std::size_t idx) const { return (values_[idx / 64] >> (idx % 64)) & 1u; }

void PcmArray::set_value(std::size_t idx, bool v) {
  const std::uint64_t mask = 1ull << (idx % 64);
  if (v) {
    values_[idx / 64] |= mask;
  } else {
    values_[idx / 64] &= ~mask;
  }
}

bool PcmArray::get_stuck(std::size_t idx) const { return (stuck_[idx / 64] >> (idx % 64)) & 1u; }

void PcmArray::set_stuck(std::size_t idx) { stuck_[idx / 64] |= 1ull << (idx % 64); }

bool PcmArray::read_bit(std::size_t line, std::size_t bit) const {
  return get_value(cell_index(line, bit));
}

void PcmArray::read_range(std::size_t line, std::size_t bit_off, std::size_t nbits,
                          std::span<std::uint8_t> out) const {
  expects(bit_off + nbits <= kLineTotalBits, "read range exceeds line");
  expects(out.size() * 8 >= nbits, "output buffer too small");
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  const std::size_t base = cell_index(line, bit_off);
  std::size_t i = 0;
  while (i < nbits) {
    const unsigned chunk = static_cast<unsigned>(std::min<std::size_t>(64, nbits - i));
    std::uint64_t v = extract64(values_, base + i);
    if (chunk < 64) v &= (~0ull) >> (64 - chunk);
    for (unsigned b = 0; b < chunk; b += 8) {
      const std::size_t byte = (i + b) / 8;
      // i is a multiple of 64 here, so (i + b) is byte aligned.
      out[byte] = static_cast<std::uint8_t>((v >> b) & 0xFFu);
    }
    i += chunk;
  }
}

PcmWriteResult PcmArray::write_range(std::size_t line, std::size_t bit_off,
                                     std::span<const std::uint8_t> data, std::size_t nbits) {
  expects(bit_off + nbits <= kLineTotalBits, "write range exceeds line");
  expects(data.size() * 8 >= nbits, "input buffer too small");
  PcmWriteResult result;
  const std::size_t base = cell_index(line, bit_off);

  // One word-level kernel for every range: value updates are one masked XOR
  // store per word, pulse tallies are popcounts, and the endurance update is
  // a masked u16 lane decrement that also reports which programmed cells hit
  // 0 — exactly the cells that wear out on this pulse, since a live cell
  // always has endurance >= 1. The per-bit work (and the RNG) runs only at
  // those births, in ascending bit order, the definitional model's order.
  // The per-line stuck count lets a fault-free line skip the stuck-mask
  // extraction; it covers the data area only, so ranges reaching into the
  // ECC-chip area always extract the mask.
  const bool may_hit_stuck = data_stuck_[line] != 0 || bit_off + nbits > kBlockBits;
  std::size_t i = 0;
  while (i < nbits) {
    const unsigned chunk = static_cast<unsigned>(std::min<std::size_t>(64, nbits - i));
    const std::uint64_t mask = chunk == 64 ? ~0ull : ((~0ull) >> (64 - chunk));
    const std::uint64_t want = load_bits64(data, i, chunk);
    const std::size_t pos = base + i;
    const std::uint64_t stored = extract64(values_, pos) & mask;
    const std::uint64_t stuckm = may_hit_stuck ? extract64(stuck_, pos) & mask : 0;
    const std::uint64_t diff = (stored ^ want) & mask;

    result.mismatched_bits += static_cast<std::size_t>(std::popcount(diff & stuckm));

    const std::uint64_t program = diff & ~stuckm;  // differential write: flip these
    if (program != 0) {
      const auto nprog = static_cast<std::size_t>(std::popcount(program));
      const auto nset = static_cast<std::size_t>(std::popcount(want & program));
      result.programmed_bits += nprog;
      total_programmed_ += nprog;
      total_set_ += nset;
      total_reset_ += nprog - nset;

      const std::uint64_t died =
          simd::active::endurance_decrement64(endurance_.data() + pos, program);
      const std::uint64_t flip = program & ~died;
      const std::size_t w = pos / 64;
      const unsigned sh = static_cast<unsigned>(pos % 64);
      values_[w] ^= flip << sh;
      if (sh != 0 && (flip >> (64 - sh)) != 0) values_[w + 1] ^= flip >> (64 - sh);

      for (std::uint64_t d = died; d != 0; d &= d - 1) {
        // The cell wears out on this pulse and latches a stuck value.
        // Stuck-at-RESET (heater detach) latches 0; stuck-at-SET latches 1.
        const unsigned b = static_cast<unsigned>(std::countr_zero(d));
        set_stuck(pos + b);
        ++result.new_faults;
        ++total_faults_;
        on_fault_born(line, bit_off + i + b);
        const bool stuck_value = !rng_.next_bool(config_.stuck_at_reset_fraction);
        set_value(pos + b, stuck_value);
        if (stuck_value != ((want >> b) & 1u)) ++result.mismatched_bits;
      }
    }
    i += chunk;
  }
  return result;
}

void PcmArray::on_fault_born(std::size_t line, std::size_t bit) {
  if (bit < kBlockBits) {
    ++data_stuck_[line];
    prefix_valid_[line] = 0;
  }
}

std::span<const std::uint16_t> PcmArray::byte_stuck_prefix(std::size_t line) const {
  expects(line < config_.lines, "line out of range");
  std::uint16_t* p = prefix_.data() + line * (kBlockBytes + 1);
  if (!prefix_valid_[line]) {
    const std::size_t word0 = line * kLineTotalBits / 64;
    p[0] = 0;
    for (std::size_t w = 0; w < kBlockBits / 64; ++w) {
      const std::uint64_t word = stuck_[word0 + w];
      for (std::size_t j = 0; j < 8; ++j) {
        const auto byte_count =
            static_cast<std::uint16_t>(std::popcount((word >> (8 * j)) & 0xFFull));
        p[w * 8 + j + 1] = static_cast<std::uint16_t>(p[w * 8 + j] + byte_count);
      }
    }
    prefix_valid_[line] = 1;
  }
  return {p, kBlockBytes + 1};
}

bool PcmArray::is_stuck(std::size_t line, std::size_t bit) const {
  return get_stuck(cell_index(line, bit));
}

std::size_t PcmArray::count_stuck(std::size_t line, std::size_t bit_off,
                                  std::size_t nbits) const {
  expects(bit_off + nbits <= kLineTotalBits, "range exceeds line");
  const std::size_t base = cell_index(line, bit_off);
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < nbits) {
    const unsigned chunk = static_cast<unsigned>(std::min<std::size_t>(64, nbits - i));
    std::uint64_t v = extract64(stuck_, base + i);
    if (chunk < 64) v &= (~0ull) >> (64 - chunk);
    n += static_cast<std::size_t>(std::popcount(v));
    i += chunk;
  }
  return n;
}

std::vector<std::uint16_t> PcmArray::stuck_positions(std::size_t line, std::size_t bit_off,
                                                     std::size_t nbits) const {
  std::array<std::uint16_t, kLineTotalBits> buf;
  const std::size_t n = stuck_positions_into(line, bit_off, nbits, buf);
  return {buf.begin(), buf.begin() + n};
}

std::size_t PcmArray::stuck_positions_into(std::size_t line, std::size_t bit_off,
                                           std::size_t nbits,
                                           std::span<std::uint16_t> out) const {
  expects(bit_off + nbits <= kLineTotalBits, "range exceeds line");
  const std::size_t base = cell_index(line, bit_off);
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < nbits) {
    const unsigned chunk = static_cast<unsigned>(std::min<std::size_t>(64, nbits - i));
    std::uint64_t v = extract64(stuck_, base + i);
    if (chunk < 64) v &= (~0ull) >> (64 - chunk);
    while (v != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(v));
      v &= v - 1;
      expects(count < out.size(), "stuck position buffer too small");
      out[count++] = static_cast<std::uint16_t>(bit_off + i + b);
    }
    i += chunk;
  }
  return count;
}

std::uint32_t PcmArray::remaining_endurance(std::size_t line, std::size_t bit) const {
  return endurance_[cell_index(line, bit)];
}

void PcmArray::inject_fault(std::size_t line, std::size_t bit, bool stuck_value) {
  const std::size_t idx = cell_index(line, bit);
  if (!get_stuck(idx)) {
    set_stuck(idx);
    ++total_faults_;
    on_fault_born(line, bit);
  }
  endurance_[idx] = 0;
  set_value(idx, stuck_value);
}

}  // namespace pcmsim
