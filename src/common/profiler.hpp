// Cheap per-stage cycle counters for the write path.
//
// Answers "where did the nanoseconds go" per stage (trace-gen, compress,
// heuristic, place, program, ECC, gap-move) instead of end-to-end only, so
// perf PRs can attribute their wins. Two gates keep it out of the way:
//  * compile-time: the PCMSIM_PROFILE CMake option (default ON) compiles the
//    instrumentation; when OFF every hook is an empty inline no-op;
//  * run-time: counters only tick when enabled via prof::set_enabled(true)
//    (benches expose `--profile`; the PCMSIM_PROFILE environment variable
//    also enables it). Disabled cost is one relaxed load per scope.
//
// Timing uses rdtsc on x86 (reported as "ticks"); stages nest — kGapMove
// includes the place/program/ECC work of the migrated line — so tick totals
// attribute time but do not sum to wall clock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string_view>

#if defined(PCMSIM_PROFILE) && !defined(__x86_64__) && !defined(__i386__)
#include <chrono>
#endif

namespace pcmsim::prof {

enum class Stage : std::uint8_t {
  kTraceGen,   ///< synthetic write-back generation (workload/trace)
  kTraceWait,  ///< consumer-side wait+copy under PrefetchTraceSource
  kTierFilter, ///< DRAM front-tier filtering (tier/front_tier: lookup,
               ///< fingerprint, victim choice; excludes PCM forwards)
  kCompress,   ///< best-of(BDI,FPC) compression
  kHeuristic,  ///< Fig-8 write decision
  kPlace,      ///< window placement search (find/fits)
  kProgram,    ///< differential write of the window segments
  kEcc,        ///< scheme encode/decode (functional-verify mode)
  kGapMove,    ///< Start-Gap line migration (includes nested stages)
  kCount,
};
inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

[[nodiscard]] std::string_view stage_name(Stage s);

#ifdef PCMSIM_PROFILE

inline constexpr bool kCompiled = true;

struct StageCounter {
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::uint64_t> calls{0};
};

namespace detail {
extern std::array<StageCounter, kStageCount> g_counters;
extern std::atomic<bool> g_enabled;

inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
#endif
}
}  // namespace detail

[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);
void reset();

/// RAII stage scope: samples the cycle counter on entry/exit when enabled.
class ScopedStage {
 public:
  explicit ScopedStage(Stage s) : stage_(s), on_(enabled()) {
    if (on_) t0_ = detail::now_ticks();
  }
  ~ScopedStage() {
    if (on_) {
      auto& c = detail::g_counters[static_cast<std::size_t>(stage_)];
      c.ticks.fetch_add(detail::now_ticks() - t0_, std::memory_order_relaxed);
      c.calls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Stage stage_;
  bool on_;
  std::uint64_t t0_ = 0;
};

[[nodiscard]] std::uint64_t stage_ticks(Stage s);
[[nodiscard]] std::uint64_t stage_calls(Stage s);

#else  // !PCMSIM_PROFILE — every hook compiles away.

inline constexpr bool kCompiled = false;

[[nodiscard]] inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void reset() {}

class ScopedStage {
 public:
  explicit ScopedStage(Stage) {}
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;
};

[[nodiscard]] inline constexpr std::uint64_t stage_ticks(Stage) { return 0; }
[[nodiscard]] inline constexpr std::uint64_t stage_calls(Stage) { return 0; }

#endif  // PCMSIM_PROFILE

/// Emits the accumulated counters as one JSON object, e.g.
/// {"unit": "rdtsc_ticks", "compress": {"ticks": N, "calls": M}, ...}.
/// `indent` is prepended to each stage line (benches embed the object in a
/// larger JSON document). Emits {"enabled": false} when profiling is off.
void dump_json(std::ostream& os, std::string_view indent = "  ");

}  // namespace pcmsim::prof
