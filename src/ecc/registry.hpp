// String-keyed, parameterized hard-error scheme registry — the front door of
// the ECC laboratory.
//
// A *spec* is a short string like "ecp6", "safer32", "bch-t2" or "coset-w4"
// that parses into a scheme factory. The registry serves two audiences:
//  * PcmSystem constructs the scheme for SystemConfig::ecc_spec and checks
//    the scheme's SchemeTraits instead of hard-coding per-scheme guards;
//  * benches/tests enumerate registered_schemes() to drive scheme-by-workload
//    matrices without instantiating anything — each entry carries the display
//    name and a traits snapshot (both test-enforced to match the constructed
//    scheme).
//
// Grammar (parameterized; the canonical list below is just the registered
// subset): ecp<N> (N in 1..12), safer<P>[-ideal] (P a power of two),
// aegis<R>x<C> (max(R, C) <= 58), secded, bch-t<T> (T in 1..6),
// coset-w<W> (W in {4, 8}).
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "ecc/scheme.hpp"

namespace pcmsim {

/// One registered (canonical) scheme spec. `name` and `traits` are static
/// snapshots of the constructed scheme's name()/traits() — equality is
/// enforced by the registry round-trip test — so callers can print tables or
/// pick a legal SystemMode without building a scheme.
struct SchemeSpecInfo {
  std::string_view spec;     ///< registry key, e.g. "bch-t2"
  std::string_view name;     ///< display name, == make_scheme(spec)->name()
  std::string_view summary;  ///< one-liner for bench/CLI listings
  SchemeTraits traits;       ///< == make_scheme(spec)->traits()
};

/// The canonical scheme list, in bench enumeration order.
[[nodiscard]] std::span<const SchemeSpecInfo> registered_schemes();

/// Registry entry for a canonical spec, or nullptr (parameterized specs that
/// are valid but not in the canonical list return nullptr too).
[[nodiscard]] const SchemeSpecInfo* find_scheme_info(std::string_view spec);

/// Parses `spec` and constructs the scheme. Throws ContractViolation on an
/// unknown spec, out-of-range parameters, or metadata past the 64-bit word
/// (ECP-N>6 excepted: its simulated word is compact, see ecc/ecp.cpp).
[[nodiscard]] std::unique_ptr<HardErrorScheme> make_scheme(std::string_view spec);

/// True when make_scheme(spec) would succeed.
[[nodiscard]] bool is_scheme_spec(std::string_view spec);

/// Traits of `spec` without keeping the scheme: canonical specs answer from
/// the registry table; other valid specs construct once.
[[nodiscard]] SchemeTraits scheme_traits(std::string_view spec);

}  // namespace pcmsim
