#include "ecc/bch.hpp"

#include "common/assert.hpp"

namespace pcmsim {

namespace {
// Primitive polynomial of GF(2^10): x^10 + x^3 + 1.
constexpr unsigned kPrimitivePoly = 0x409;
constexpr std::uint32_t kRhsBit = 1u << 31;  // rhs flag in a GF(2) system row
}  // namespace

BchScheme::BchScheme(std::size_t t) : t_(t) {
  expects(t >= 1 && t <= 6, "BCH-t syndromes must fit the 64-bit budget (t in 1..6)");
  name_ = "BCH-t" + std::to_string(t);
  unsigned x = 1;
  for (std::size_t k = 0; k < exp_.size(); ++k) {
    exp_[k] = static_cast<std::uint16_t>(x);
    x <<= 1;
    if (x & (1u << kSymbolBits)) x ^= kPrimitivePoly;
  }
}

std::uint16_t BchScheme::alpha_pow(std::size_t exponent) const {
  return exp_[exponent % kFieldOrder];
}

std::uint64_t BchScheme::syndromes(std::span<const std::uint8_t> data,
                                   std::size_t window_bits) const {
  // S_j = sum over set bits i of alpha^(j*i) for j = 1, 3, ..., 2t-1. The
  // exponents advance incrementally (e_k += j mod 1023) so no multiplies or
  // table lookups beyond one per set bit per syndrome are needed.
  std::array<std::uint16_t, 6> acc{};
  std::array<std::uint16_t, 6> exponent{};  // (j * i) mod 1023 for current i
  for (std::size_t i = 0; i < window_bits; ++i) {
    if (get_bit(data, i)) {
      for (std::size_t k = 0; k < t_; ++k) acc[k] ^= exp_[exponent[k]];
    }
    for (std::size_t k = 0; k < t_; ++k) {
      const std::size_t e = exponent[k] + 2 * k + 1;
      exponent[k] = static_cast<std::uint16_t>(e >= kFieldOrder ? e - kFieldOrder : e);
    }
  }
  std::uint64_t packed = 0;
  for (std::size_t k = 0; k < t_; ++k) {
    packed |= static_cast<std::uint64_t>(acc[k]) << (k * kSymbolBits);
  }
  return packed;
}

bool BchScheme::can_tolerate(std::span<const FaultCell> faults,
                             std::size_t window_bits) const {
  expects(window_bits <= kBlockBits, "BCH symbols address at most 512 data bits");
  // Known-position stuck cells are erasures: designed distance 2t+1 corrects
  // up to 2t of them for every pattern, data-independently.
  return faults.size() <= 2 * t_;
}

std::optional<HardErrorScheme::EncodeResult> BchScheme::encode(
    std::span<const std::uint8_t> data, std::size_t window_bits,
    std::span<const FaultCell> faults) const {
  if (!can_tolerate(faults, window_bits)) return std::nullopt;
  for (const auto& f : faults) expects(f.pos < window_bits, "fault outside window");
  EncodeResult out;
  out.image.assign(data);
  out.meta = syndromes(data, window_bits);
  return out;
}

InlineBytes BchScheme::decode(std::span<const std::uint8_t> raw, std::size_t window_bits,
                              std::uint64_t meta, std::span<const FaultCell> faults) const {
  InlineBytes out(raw);
  const std::uint64_t diff = syndromes(raw, window_bits) ^ meta;
  if (diff == 0) return out;

  // The error vector is supported on the known fault positions. Solve the
  // GF(2) system sum_k e_k * alpha^(j*p_k) = S_j(raw) - S_j(data) — 10t
  // binary equations in |faults| <= 2t unknowns. Any <= 2t such columns are
  // linearly independent (BCH bound), so the binary solution is unique.
  const std::size_t nuk = faults.size();
  expects(nuk > 0 && nuk <= 2 * t_, "BCH syndrome mismatch without matching erasures");
  std::array<std::uint32_t, 6 * kSymbolBits> rows{};
  const std::size_t nrows = t_ * kSymbolBits;
  for (std::size_t k = 0; k < t_; ++k) {
    const auto rhs = static_cast<std::uint16_t>((diff >> (k * kSymbolBits)) &
                                                ((1u << kSymbolBits) - 1));
    std::array<std::uint16_t, 24> col{};
    for (std::size_t u = 0; u < nuk; ++u) {
      col[u] = alpha_pow((2 * k + 1) * faults[u].pos);
    }
    for (std::size_t b = 0; b < kSymbolBits; ++b) {
      std::uint32_t row = ((rhs >> b) & 1u) ? kRhsBit : 0u;
      for (std::size_t u = 0; u < nuk; ++u) row |= ((col[u] >> b) & 1u) << u;
      rows[k * kSymbolBits + b] = row;
    }
  }

  // Gauss-Jordan over GF(2); pivots exist for every unknown (independence).
  std::array<std::size_t, 12> pivot_row{};
  std::size_t rank = 0;
  for (std::size_t c = 0; c < nuk; ++c) {
    std::size_t p = rank;
    while (p < nrows && !(rows[p] & (1u << c))) ++p;
    expects(p < nrows, "BCH erasure system is singular (stale fault list?)");
    std::swap(rows[p], rows[rank]);
    for (std::size_t r = 0; r < nrows; ++r) {
      if (r != rank && (rows[r] & (1u << c))) rows[r] ^= rows[rank];
    }
    pivot_row[c] = rank++;
  }
  for (std::size_t r = rank; r < nrows; ++r) {
    ensures(!(rows[r] & kRhsBit), "BCH erasure system inconsistent (stale fault list?)");
  }
  for (std::size_t c = 0; c < nuk; ++c) {
    if (rows[pivot_row[c]] & kRhsBit) {
      expects(faults[c].pos < window_bits, "fault outside window");
      set_bit(out, faults[c].pos, !get_bit(raw, faults[c].pos));
    }
  }
  return out;
}

}  // namespace pcmsim
