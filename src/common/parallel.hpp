// Deterministic parallel execution primitives for sweeps and Monte Carlo.
//
// A lazily-started global thread pool runs `parallel_for(n, fn)` /
// `parallel_map(items, fn)` regions. Results are written to caller-indexed
// slots, so output ordering — and therefore any reduction done in index
// order — is independent of the worker count. Callers that need randomness
// must derive an independent stream per index (see mix64 in common/rng.hpp);
// together these two rules make every parallelized experiment bit-identical
// to its serial run at any thread count.
//
// Worker-count precedence: set_parallel_threads() (the `--threads` CLI flag)
// > the PCMSIM_THREADS environment variable > hardware_concurrency.
//
// Nested regions run inline on the calling worker (no deadlock, no
// oversubscription), and a region opened while another thread's region is
// active also runs inline — a busy pool degrades to serial execution (same
// results, by the slot rule above) instead of blocking, so regions compose
// freely across threads (e.g. a prefetch worker decoding inside a
// parallel_map task). Exceptions thrown by `fn` cancel the remaining indices
// and are rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace pcmsim {

class CliArgs;

/// Worker count the next parallel region will use (>= 1). Throws
/// std::invalid_argument when it falls back to a malformed PCMSIM_THREADS.
[[nodiscard]] std::size_t parallel_threads();

/// Overrides the worker count; 0 restores automatic selection
/// (PCMSIM_THREADS env, else hardware_concurrency). Safe to call between
/// regions; an active pool is drained and restarted at the new size.
void set_parallel_threads(std::size_t n);

/// Applies a `--threads N` CLI flag (if present; 0 means auto) and returns the
/// resolved worker count. Flag > PCMSIM_THREADS env > hardware_concurrency.
/// A negative flag or a PCMSIM_THREADS that is not a non-negative integer
/// throws std::invalid_argument naming it.
std::size_t set_threads_from_cli(const CliArgs& args);

/// Runs fn(0) .. fn(n-1), distributed over the pool. Blocks until all
/// indices completed. Rethrows the first exception thrown by any fn.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Maps fn over items, preserving order: out[i] = fn(items[i]).
template <typename T, typename Fn>
[[nodiscard]] auto parallel_map(const std::vector<T>& items, Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, const T&>>;
  std::vector<R> out(items.size());
  parallel_for(items.size(), [&](std::size_t i) { out[i] = fn(items[i]); });
  return out;
}

}  // namespace pcmsim
