#include "common/profiler.hpp"

#include <cstdlib>

namespace pcmsim::prof {

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::kTraceGen: return "trace_gen";
    case Stage::kTierFilter: return "tier_filter";
    case Stage::kCompress: return "compress";
    case Stage::kHeuristic: return "heuristic";
    case Stage::kPlace: return "place";
    case Stage::kProgram: return "program";
    case Stage::kEcc: return "ecc";
    case Stage::kGapMove: return "gap_move";
    case Stage::kCount: break;
  }
  return "?";
}

#ifdef PCMSIM_PROFILE

namespace detail {
std::array<StageCounter, kStageCount> g_counters;
std::atomic<bool> g_enabled{false};

namespace {
// Honour the PCMSIM_PROFILE environment variable so any binary (not just the
// benches with a --profile flag) can be profiled without a rebuild.
const bool g_env_init = [] {
  const char* e = std::getenv("PCMSIM_PROFILE");
  if (e != nullptr && *e != '\0' && *e != '0') g_enabled.store(true);
  return true;
}();
}  // namespace
}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
  for (auto& c : detail::g_counters) {
    c.ticks.store(0, std::memory_order_relaxed);
    c.calls.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t stage_ticks(Stage s) {
  return detail::g_counters[static_cast<std::size_t>(s)].ticks.load(std::memory_order_relaxed);
}

std::uint64_t stage_calls(Stage s) {
  return detail::g_counters[static_cast<std::size_t>(s)].calls.load(std::memory_order_relaxed);
}

#endif  // PCMSIM_PROFILE

void dump_json(std::ostream& os, std::string_view indent) {
  if (!kCompiled || !enabled()) {
    os << "{\"enabled\": false}";
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  constexpr std::string_view unit = "rdtsc_ticks";
#else
  constexpr std::string_view unit = "steady_clock_ns";
#endif
  os << "{\n" << indent << "  \"unit\": \"" << unit << "\"";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto s = static_cast<Stage>(i);
    os << ",\n"
       << indent << "  \"" << stage_name(s) << "\": {\"ticks\": " << stage_ticks(s)
       << ", \"calls\": " << stage_calls(s) << "}";
  }
  os << "\n" << indent << "}";
}

}  // namespace pcmsim::prof
