#include "sim/monte_carlo.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "core/window.hpp"

namespace pcmsim {

namespace {

/// Per-trial buffers reused across a whole chunk of trials so the inner loop
/// allocates nothing.
struct TrialScratch {
  std::vector<FaultCell> faults;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> windows;  ///< (count, start)
};

bool trial_survives(const HardErrorScheme& scheme, std::size_t data_bytes,
                    std::span<const std::uint16_t> positions, bool wrap_windows,
                    TrialScratch& scratch) {
  const std::size_t guaranteed = scheme.guaranteed_correctable();
  // Every pattern at or below the guaranteed bound is correctable no matter
  // where the window lands — skip the window sweep entirely.
  if (positions.size() <= guaranteed) return true;

  const std::size_t window_bits = data_bytes * 8;

  // Faults per byte, for a fast per-window fault count via prefix sums.
  std::array<std::uint16_t, kBlockBytes + 1> prefix{};
  for (auto p : positions) ++prefix[p / 8 + 1];
  for (std::size_t i = 1; i <= kBlockBytes; ++i) {
    prefix[i] = static_cast<std::uint16_t>(prefix[i] + prefix[i - 1]);
  }

  const std::size_t starts = wrap_windows
                                 ? kBlockBytes
                                 : (data_bytes <= kBlockBytes ? kBlockBytes - data_bytes + 1 : 0);

  // Pass 1: prefix-sum counts only. A window at or below the guaranteed bound
  // decides the trial without the full tolerance check; one above
  // max_tolerable() can never tolerate, so it is not queued for pass 2.
  const std::size_t bound = scheme.max_tolerable();
  scratch.windows.clear();
  for (std::size_t start = 0; start < starts; ++start) {
    const std::size_t n = window_stuck_from_prefix(prefix, start, data_bytes);
    if (n <= guaranteed) return true;
    if (n > bound) continue;
    scratch.windows.emplace_back(static_cast<std::uint16_t>(n),
                                 static_cast<std::uint16_t>(start));
  }

  // Pass 2: full per-pattern check, fewest-fault windows first — the sweep
  // stops at the first tolerable window, and low-count windows are the most
  // likely to tolerate, so most can_tolerate calls are skipped. Order cannot
  // change the outcome: the result is "does any window tolerate".
  std::stable_sort(scratch.windows.begin(), scratch.windows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  auto& faults = scratch.faults;
  for (const auto& [n, start] : scratch.windows) {
    faults.clear();
    const std::size_t start_bit = static_cast<std::size_t>(start) * 8;
    for (auto p : positions) {
      const std::size_t rel =
          p >= start_bit ? p - start_bit : p + kBlockBits - start_bit;  // wrap distance
      if (rel < window_bits) faults.push_back(FaultCell{static_cast<std::uint16_t>(rel), false});
    }
    std::sort(faults.begin(), faults.end(),
              [](const FaultCell& a, const FaultCell& b) { return a.pos < b.pos; });
    if (scheme.can_tolerate(faults, window_bits)) return true;
  }
  return false;
}

std::uint64_t chunk_failures(const HardErrorScheme& scheme, std::size_t data_bytes,
                             std::size_t nerrors, bool wrap_windows, std::size_t trials,
                             Rng& rng) {
  // Partial Fisher-Yates over the 512 cell indices, reused across trials.
  std::array<std::uint16_t, kBlockBits> cells{};
  std::iota(cells.begin(), cells.end(), std::uint16_t{0});

  TrialScratch scratch;
  std::vector<std::uint16_t> positions(nerrors);
  std::uint64_t failures = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < nerrors; ++i) {
      const std::size_t j = i + rng.next_below(kBlockBits - i);
      std::swap(cells[i], cells[j]);
      positions[i] = cells[i];
    }
    if (!trial_survives(scheme, data_bytes, positions, wrap_windows, scratch)) ++failures;
  }
  return failures;
}

}  // namespace

bool mc_trial_survives(const HardErrorScheme& scheme, std::size_t data_bytes,
                       std::span<const std::uint16_t> positions, bool wrap_windows) {
  TrialScratch scratch;
  return trial_survives(scheme, data_bytes, positions, wrap_windows, scratch);
}

double mc_failure_probability(const HardErrorScheme& scheme, std::size_t data_bytes,
                              std::size_t nerrors, const MonteCarloConfig& config, Rng& rng) {
  expects(data_bytes >= 1 && data_bytes <= kBlockBytes, "data size must be 1..64 bytes");
  expects(nerrors <= kBlockBits, "cannot inject more faults than cells");
  expects(config.trials > 0, "need at least one trial");

  // Trials shard into fixed-size chunks; chunk c owns the splitmix64-derived
  // stream mix64(base, c), so the failure count of every chunk — and the
  // index-ordered sum below — is the same at any thread count.
  const std::uint64_t base = rng();  // single draw, whatever the chunking
  const std::size_t chunk = std::max<std::size_t>(std::size_t{1}, config.chunk_trials);
  const std::size_t nchunks = (config.trials + chunk - 1) / chunk;

  std::vector<std::uint64_t> failures(nchunks, 0);
  parallel_for(nchunks, [&](std::size_t c) {
    Rng chunk_rng(mix64(base, c));
    const std::size_t begin = c * chunk;
    const std::size_t count = std::min(chunk, config.trials - begin);
    failures[c] = chunk_failures(scheme, data_bytes, nerrors, config.wrap_windows, count,
                                 chunk_rng);
  });
  const std::uint64_t total = std::accumulate(failures.begin(), failures.end(), std::uint64_t{0});
  return static_cast<double>(total) / static_cast<double>(config.trials);
}

}  // namespace pcmsim
