// Microbenchmark for the hard-error schemes' hot operations: the
// can_tolerate() placement check (timed at 4/8/16-fault windows) and the
// functional encode()/decode() round-trip at each scheme's guaranteed fault
// count. Enumerates the full ECC registry by default; `--scheme <spec>`
// narrows to one spec (any registry grammar, not just the canonical list).
// Emits machine-readable JSON like the other micro benches.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "ecc/registry.hpp"

using namespace pcmsim;

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point t0, Clock::time_point t1, std::size_t ops) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return static_cast<double>(ns) / static_cast<double>(ops);
}

std::vector<std::vector<FaultCell>> fault_sets(std::size_t nfaults, std::size_t count) {
  Rng rng(nfaults * 7 + 3);
  std::vector<std::vector<FaultCell>> sets;
  std::vector<std::uint16_t> pos(kBlockBits);
  std::iota(pos.begin(), pos.end(), std::uint16_t{0});
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<FaultCell> f;
    for (std::size_t i = 0; i < nfaults; ++i) {
      const std::size_t j = i + rng.next_below(kBlockBits - i);
      std::swap(pos[i], pos[j]);
      f.push_back(FaultCell{pos[i], rng.next_bool(0.5)});
    }
    std::sort(f.begin(), f.end(),
              [](const FaultCell& a, const FaultCell& b) { return a.pos < b.pos; });
    sets.push_back(std::move(f));
  }
  return sets;
}

double time_can_tolerate(const HardErrorScheme& scheme, std::size_t nfaults,
                         std::size_t iters) {
  const auto sets = fault_sets(nfaults, 64);
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    sink += scheme.can_tolerate(sets[i % sets.size()], kBlockBits) ? 1u : 0u;
  }
  const auto t1 = Clock::now();
  const double ns = ns_per_op(t0, t1, iters);
  return sink == iters + 1 ? ns + 1e-9 : ns;  // sink defeats dead-code elimination
}

struct CodecTimings {
  double encode_ns = 0;
  double decode_ns = 0;
};

/// Times encode() and decode() at the scheme's guaranteed fault count — the
/// regime every functional-mode window write pays. The decode corpus is the
/// encode output with its faults applied, so decode really corrects.
CodecTimings time_codec(const HardErrorScheme& scheme, std::size_t iters,
                        std::uint64_t seed) {
  const std::size_t nfaults = scheme.guaranteed_correctable();
  const auto sets = fault_sets(nfaults, 64);
  Rng rng(seed);
  std::vector<std::uint8_t> data(kBlockBytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  CodecTimings out;
  std::size_t sink = 0;
  const auto e0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto enc = scheme.encode(data, kBlockBits, sets[i % sets.size()]);
    sink += static_cast<std::size_t>(enc ? enc->image[0] : 0);
  }
  const auto e1 = Clock::now();
  out.encode_ns = ns_per_op(e0, e1, iters);

  struct Stored {
    InlineBytes raw;
    std::uint64_t meta;
  };
  std::vector<Stored> stored;
  for (const auto& faults : sets) {
    const auto enc = scheme.encode(data, kBlockBits, faults);
    expects(enc.has_value(), "guaranteed fault count must encode");
    stored.push_back(Stored{apply_faults(enc->image, kBlockBits, faults), enc->meta});
  }
  const auto d0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto& s = stored[i % stored.size()];
    const auto decoded = scheme.decode(s.raw, kBlockBits, s.meta, sets[i % sets.size()]);
    sink += decoded[0];
  }
  const auto d1 = Clock::now();
  out.decode_ns = ns_per_op(d0, d1, iters);
  if (sink == 1) out.decode_ns += 1e-9;  // sink defeats dead-code elimination
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"fast", "scheme"});
  const std::size_t iters = args.get_bool("fast") ? 2000 : 20000;
  const std::string only = args.get("scheme", "");

  std::vector<std::string> specs;
  if (!only.empty()) {
    if (!is_scheme_spec(only)) {
      std::cerr << "unknown scheme spec: " << only << "\n";
      return 1;
    }
    specs.push_back(only);
  } else {
    for (const auto& info : registered_schemes()) specs.emplace_back(info.spec);
  }

  std::cout << "{\n  \"iters\": " << iters << ",\n  \"schemes\": [";
  bool first = true;
  for (const auto& spec : specs) {
    const auto scheme = make_scheme(spec);
    const double t4 = time_can_tolerate(*scheme, 4, iters);
    const double t8 = time_can_tolerate(*scheme, 8, iters);
    const double t16 = time_can_tolerate(*scheme, 16, iters);
    const auto codec = time_codec(*scheme, iters, 9);
    std::cout << (first ? "" : ",") << "\n    {\"spec\": \"" << spec << "\", \"name\": \""
              << scheme->name() << "\", \"meta_bits\": " << scheme->metadata_bits()
              << ", \"guaranteed\": " << scheme->guaranteed_correctable()
              << ",\n     \"can_tolerate_ns_f4\": " << t4
              << ", \"can_tolerate_ns_f8\": " << t8
              << ", \"can_tolerate_ns_f16\": " << t16
              << ",\n     \"encode_ns\": " << codec.encode_ns
              << ", \"decode_ns\": " << codec.decode_ns << "}";
    first = false;
  }
  std::cout << "\n  ]\n}\n";
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
