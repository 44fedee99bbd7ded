#include "ecc/registry.hpp"

#include <array>
#include <charconv>
#include <string>

#include "common/assert.hpp"
#include "ecc/aegis.hpp"
#include "ecc/bch.hpp"
#include "ecc/coset.hpp"
#include "ecc/ecp.hpp"
#include "ecc/safer.hpp"
#include "ecc/secded.hpp"

namespace pcmsim {

namespace {

constexpr SchemeTraits line_traits(std::size_t meta, std::size_t guaranteed) {
  return SchemeTraits{meta, guaranteed, SchemeGranularity::kLine, true, false, false};
}

// The canonical laboratory, in bench enumeration order. Names and traits are
// snapshots; tests/ecc_registry_test asserts they match the constructed
// schemes exactly.
constexpr std::array<SchemeSpecInfo, 8> kRegistry = {{
    {"ecp6", "ECP-6", "6 pointer+replacement entries (paper baseline, 63 meta bits)",
     line_traits(63, 6)},
    {"ecp12", "ECP-12", "12 ECP entries (2x budget: what pointers alone buy)",
     line_traits(124, 12)},
    {"safer32", "SAFER-32", "32 address-bit partitions, greedy field selection",
     line_traits(52, 6)},
    {"aegis17x31", "Aegis-17x31", "CRT grid partitions, 8 guaranteed in 37 meta bits",
     line_traits(37, 8)},
    {"secded", "SECDED-72.64", "Hsiao (72,64) per word; DRAM baseline, whole lines only",
     SchemeTraits{64, 1, SchemeGranularity::kLine, false, true, false}},
    {"bch-t2", "BCH-t2", "2 odd syndromes over GF(2^10): 4 erasures in 20 meta bits",
     line_traits(20, 4)},
    {"bch-t6", "BCH-t6", "6 odd syndromes: 12 erasures in 60 meta bits (2x ECP-6)",
     line_traits(60, 12)},
    {"coset-w4", "Coset-W4", "word-level restricted coset coding over per-word FPC slack",
     SchemeTraits{32, 1, SchemeGranularity::kWord, false, false, true}},
}};

/// Parses the decimal integer that is the whole remainder of `s`.
std::optional<std::size_t> parse_num(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::size_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::unique_ptr<HardErrorScheme> parse_scheme(std::string_view spec) {
  if (spec == "secded") return std::make_unique<SecdedScheme>();
  if (starts_with(spec, "ecp")) {
    const auto n = parse_num(spec.substr(3));
    expects(n.has_value(), "malformed ecp<N> spec");
    return std::make_unique<EcpScheme>(*n);
  }
  if (starts_with(spec, "safer")) {
    std::string_view rest = spec.substr(5);
    SaferScheme::Strategy strategy = SaferScheme::Strategy::kGreedy;
    constexpr std::string_view kIdeal = "-ideal";
    if (rest.size() > kIdeal.size() &&
        rest.substr(rest.size() - kIdeal.size()) == kIdeal) {
      strategy = SaferScheme::Strategy::kExhaustive;
      rest = rest.substr(0, rest.size() - kIdeal.size());
    }
    const auto p = parse_num(rest);
    expects(p.has_value(), "malformed safer<P>[-ideal] spec");
    return std::make_unique<SaferScheme>(*p, strategy);
  }
  if (starts_with(spec, "aegis")) {
    const std::string_view rest = spec.substr(5);
    const std::size_t x = rest.find('x');
    expects(x != std::string_view::npos, "malformed aegis<R>x<C> spec");
    const auto rows = parse_num(rest.substr(0, x));
    const auto cols = parse_num(rest.substr(x + 1));
    expects(rows.has_value() && cols.has_value(), "malformed aegis<R>x<C> spec");
    return std::make_unique<AegisScheme>(*rows, *cols);
  }
  if (starts_with(spec, "bch-t")) {
    const auto t = parse_num(spec.substr(5));
    expects(t.has_value(), "malformed bch-t<T> spec");
    return std::make_unique<BchScheme>(*t);
  }
  if (starts_with(spec, "coset-w")) {
    const auto w = parse_num(spec.substr(7));
    expects(w.has_value(), "malformed coset-w<W> spec");
    return std::make_unique<CosetScheme>(*w);
  }
  expects(false, "unknown ECC scheme spec (try ecp6, ecp12, safer32, safer32-ideal, "
                 "aegis17x31, secded, bch-t2, bch-t6, coset-w4)");
  return nullptr;
}

}  // namespace

std::span<const SchemeSpecInfo> registered_schemes() { return kRegistry; }

const SchemeSpecInfo* find_scheme_info(std::string_view spec) {
  for (const auto& info : kRegistry) {
    if (info.spec == spec) return &info;
  }
  return nullptr;
}

std::unique_ptr<HardErrorScheme> make_scheme(std::string_view spec) {
  return parse_scheme(spec);
}

bool is_scheme_spec(std::string_view spec) {
  try {
    (void)parse_scheme(spec);
    return true;
  } catch (const ContractViolation&) {
    return false;
  }
}

SchemeTraits scheme_traits(std::string_view spec) {
  if (const auto* info = find_scheme_info(spec)) return info->traits;
  return make_scheme(spec)->traits();
}

}  // namespace pcmsim
