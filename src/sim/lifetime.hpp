// Trace-driven PCM lifetime simulation (paper Section IV, "Fault model").
//
// A calibrated write-back stream drives a PcmSystem until 50% of the region's
// lines are dead (the paper's system-failure criterion) or a write cap is
// hit. Endurance is scaled down so a run finishes in seconds; because every
// wear mechanism is linear in per-cell write counts, normalized lifetimes
// (Fig 10/13) are scale-invariant — bench/ablate_endurance_scale demonstrates
// this empirically — and physical months (Table IV) are recovered by scaling
// back up and dividing by the workload's write rate.
#pragma once

#include <cstdint>

#include "core/system.hpp"
#include "tier/front_tier.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {

struct LifetimeConfig {
  SystemConfig system;
  std::uint64_t max_writes = 400'000'000;  ///< safety cap (reported if hit)
  std::uint64_t check_interval = 1024;     ///< failure-poll cadence
  /// Content-aware DRAM front tier between the trace stream and PcmSystem
  /// (tier/front_tier.hpp). Disabled by default (capacity_lines == 0), in
  /// which case the run is byte-identical to the pre-tier simulator; when
  /// enabled, write-backs are offered to the tier and only its evictions
  /// reach PCM, so `max_writes` caps *offered* write-backs.
  FrontTierConfig tier;
};

struct LifetimeResult {
  std::uint64_t writes_to_failure = 0;  ///< serviced write-backs until 50% dead
  bool reached_failure = false;         ///< false when max_writes capped the run
  std::uint64_t programmed_bits = 0;
  std::uint64_t uncorrectable_events = 0;
  std::uint64_t recycled_lines = 0;
  double mean_faults_at_death = 0.0;    ///< Fig 12 metric
  double mean_flips_per_write = 0.0;
  double compressed_fraction = 0.0;
  double mean_compressed_size = 0.0;
  /// Mean programming energy per serviced write (pJ), SET/RESET pulse model.
  double energy_pj_per_write = 0.0;

  // Front-tier accounting (meaningful only when config.tier is enabled; all
  // zero otherwise — except offered_writes, which then equals
  // writes_to_failure so lifetime-amplification ratios are uniform).
  /// Write-backs offered by the workload until failure/cap. With a tier this
  /// is the lifetime-amplification numerator: the tier absorbs part of the
  /// stream, so PCM death (writes_to_failure counts PCM-serviced writes)
  /// arrives after more offered traffic.
  std::uint64_t offered_writes = 0;
  FrontTierStats tier;  ///< absorbed/coalesced/forwarded counters
  /// Modeled DRAM write latency of the tier (controller cycles, mean).
  double tier_write_latency_cycles = 0.0;
};

class TraceSource;

/// Runs one workload on one system configuration to end of life, driven by
/// the calibrated SampledTraceSource stream (trace/sampled_source.hpp)
/// folded onto the region's logical lines — the trace path of every
/// figure/table bench.
[[nodiscard]] LifetimeResult run_lifetime(const AppProfile& app, const LifetimeConfig& config,
                                          std::uint64_t trace_seed);

/// Same simulation driven by an arbitrary source (sampled, file replay,
/// looped replay). A finite source that runs dry before failure reports
/// reached_failure = false with the writes it managed to service. Replayed
/// line addresses are folded onto the configured region with a modulo.
[[nodiscard]] LifetimeResult run_lifetime(TraceSource& source, const LifetimeConfig& config);

/// Parameters converting simulated writes-to-failure into physical months.
struct MonthsModel {
  double physical_endurance = 1e7;          ///< Table II
  std::uint64_t physical_lines = (4ull << 30) / 64;  ///< 4 GB of 64 B lines
  double cores = 16;
  double clock_hz = 2.5e9;
  double ipc = 0.4;  ///< effective per-core IPC of the memory-intensive mixes
};

/// Table IV conversion: lifetime in months for a measured simulation result.
[[nodiscard]] double lifetime_months(const LifetimeResult& result, const LifetimeConfig& config,
                                     const AppProfile& app, const MonthsModel& model = {});

}  // namespace pcmsim
