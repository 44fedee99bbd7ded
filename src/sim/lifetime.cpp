#include "sim/lifetime.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "common/assert.hpp"
#include "tier/writeback_sink.hpp"
#include "trace/sampled_source.hpp"
#include "trace/trace_source.hpp"

namespace pcmsim {

namespace {

/// The one lifetime loop behind both run_lifetime overloads: drain `source`
/// in batches into the system until 50% of lines are dead, the write cap is
/// hit, or a finite trace runs dry. Batching amortizes the source's virtual call and
/// profiler scope; event generation is independent of system state, so
/// pre-generating a batch leaves the serviced write sequence identical to
/// one-at-a-time.
LifetimeResult run_lifetime_on(PcmSystem& system, TraceSource& source,
                               const LifetimeConfig& config) {
  expects(config.check_interval > 0, "lifetime check_interval must be positive");
  const std::uint64_t logical_lines = system.logical_lines();
  std::array<WritebackEvent, 256> batch;

  LifetimeResult result;
  bool exhausted = false;
  std::optional<FrontTier> tier;
  if (config.tier.enabled()) tier.emplace(config.tier, pcm_forward_sink(system));
  // With a tier, max_writes caps *offered* write-backs (the workload-facing
  // traffic) rather than PCM-serviced writes; without one the two counters
  // are the same stream, and polling the offered count keeps this loop
  // byte-identical to the pre-tier simulator (PcmSystem::write bumps
  // stats().writes unconditionally, even for writes a dead region rejects).
  std::uint64_t offered = 0;
  while (!result.reached_failure && !exhausted && offered < config.max_writes) {
    const std::uint64_t remaining = config.max_writes - offered;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch.size(), remaining));
    const std::size_t n = source.next_batch(std::span(batch.data(), want));
    if (n == 0) {
      exhausted = true;  // finite trace ran dry before failure/cap
      break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      // Folding keeps replayed captures valid on regions smaller than the one
      // they were recorded against; for synthetic sources the line is already
      // in range and the modulo is the identity.
      if (tier) {
        (void)tier->put(batch[i].line % logical_lines, batch[i].data);
      } else {
        (void)system.write(batch[i].line % logical_lines, batch[i].data);
      }
      ++offered;
      if (offered % config.check_interval == 0 && system.failed()) {
        result.reached_failure = true;
        break;
      }
    }
  }
  // The tier is deliberately NOT flushed at end of run: lines still resident
  // in DRAM at PCM death never cost PCM writes, and flushing into a failed
  // region would only distort the failure-time statistics.
  result.offered_writes = offered;
  if (tier) {
    tier->finish_timing();
    result.tier = tier->stats();
    result.tier_write_latency_cycles = tier->controller()->write_latency().mean();
  }
  // The polled check can miss a failure that lands between the last interval
  // boundary and the max_writes cap; settle it with one final check.
  if (!result.reached_failure && system.failed()) result.reached_failure = true;
  const SystemStats& st = system.stats();
  result.writes_to_failure = st.writes;
  result.programmed_bits = static_cast<std::uint64_t>(st.flips_per_write.sum());
  result.uncorrectable_events = st.uncorrectable_events;
  result.recycled_lines = st.recycled_lines;
  result.mean_faults_at_death = st.faults_at_death.mean();
  result.mean_flips_per_write = st.flips_per_write.mean();
  const double stored = static_cast<double>(st.compressed_writes + st.uncompressed_writes);
  result.compressed_fraction =
      stored > 0 ? static_cast<double>(st.compressed_writes) / stored : 0.0;
  result.mean_compressed_size = st.compressed_size.mean();
  result.energy_pj_per_write =
      st.writes > 0 ? system.array().write_energy_pj() / static_cast<double>(st.writes) : 0.0;
  return result;
}

}  // namespace

LifetimeResult run_lifetime(TraceSource& source, const LifetimeConfig& config) {
  PcmSystem system(config.system);
  return run_lifetime_on(system, source, config);
}

LifetimeResult run_lifetime(const AppProfile& app, const LifetimeConfig& config,
                            std::uint64_t trace_seed) {
  PcmSystem system(config.system);
  SampledTraceSource source(app, system.logical_lines(), trace_seed);
  return run_lifetime_on(system, source, config);
}

double lifetime_months(const LifetimeResult& result, const LifetimeConfig& config,
                       const AppProfile& app, const MonthsModel& model) {
  // Writes the full-size memory would absorb before 50% capacity death:
  // simulated writes, scaled by endurance (linear in per-cell cycles) and by
  // region size (a k-times larger region absorbs k times the traffic for the
  // same per-line wear profile).
  const double endurance_scale = model.physical_endurance / config.system.device.endurance_mean;
  const double region_scale = static_cast<double>(model.physical_lines) /
                              static_cast<double>(config.system.device.lines);
  const double physical_writes =
      static_cast<double>(result.writes_to_failure) * endurance_scale * region_scale;

  // Write-back rate of the 16-core CMP running this workload (Table II/III).
  const double instr_per_sec = model.cores * model.clock_hz * model.ipc;
  const double writes_per_sec = instr_per_sec * app.wpki / 1000.0;
  expects(writes_per_sec > 0, "workload write rate must be positive");

  const double seconds = physical_writes / writes_per_sec;
  return seconds / (30.44 * 24 * 3600);
}

}  // namespace pcmsim
