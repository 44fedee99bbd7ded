// Sharded multi-bank memory-system engine: the production-scale execution
// spine over PcmSystem.
//
// Where PcmSystem models one flat region driven by one trace stream, the
// sharded engine promotes the bank dimension to the unit of execution:
// physical lines interleave across `channels x banks` shards through the
// shared AddressMap (core/address_map.hpp — the same mapping the controller
// timing bench uses), and each shard owns
//   * its own PcmSystem slice with split RNG streams (mix64(seed, shard) for
//     both Start-Gap randomization and endurance sampling), and
//   * its own single-bank MemoryController instance, charging DDR-style
//     queueing/turnaround service cycles to the shard's event stream so a
//     run reports modeled latency and per-bank utilization alongside
//     simulated lifetime.
//
// Many concurrent tenants drive the engine: one TraceSource per tenant
// (sampled or file replay — anything behind the seam),
// each folded onto a disjoint slice of the global logical address space so
// tenants wear shared banks without aliasing each other's lines.
//
// Execution model and the determinism argument
// --------------------------------------------
// The run alternates double-buffered windows on the PR-1 deterministic
// thread pool. Within one pool region of `shards + 1` indices, index 0 (the
// dispatcher) drains tenant sources round-robin and routes events into each
// shard's *back* queue (bounded by `queue_capacity`), while indices 1..S
// execute their shard's *front* queue: submit the event to the shard
// controller, then PcmSystem::write. The epoch barrier swaps the buffers.
// Determinism at any --threads follows from three facts:
//   1. the dispatcher is a single logical task, so the per-shard event
//      order is fixed by tenant order and the address map, never by timing;
//   2. a shard's queue is consumed by exactly one region index, and each
//      shard's PcmSystem/controller/RNG state is touched by no other index
//      (the pool may run an index on any worker, but the region join
//      sequences epochs, so there is no concurrent access and no ordering
//      freedom);
//   3. per-shard SystemStats are merged exactly (SystemStats::merge, shard
//      order) only after the run, and per-tenant accounting is accumulated
//      in per-shard slots and summed at epoch boundaries — both reductions
//      are in fixed index order.
// Hence byte-identical results at --threads 1 and --threads 64; CI pins this
// with a checksum gate on bench/multi_tenant.
//
// Within an epoch there is no lock, no atomic, and no cross-index traffic in
// the steady state — the only synchronization is the epoch barrier itself,
// and dispatch overlaps execution across it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "core/address_map.hpp"
#include "core/system.hpp"
#include "tier/front_tier.hpp"
#include "trace/trace_source.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {

struct ShardedEngineConfig {
  /// Per-shard system template. `device.lines` is the line count of ONE
  /// shard (including its Start-Gap spare); seeds are ignored and replaced
  /// by the split per-shard streams mix64(seed, shard, salt).
  SystemConfig shard_system;
  /// Channel x bank geometry; shards() = channels * banks_per_channel.
  AddressMap map;
  /// Timing model charged per shard (each shard is one bank of this config).
  ControllerConfig controller;
  /// Modeled controller cycles between consecutive globally-dispatched
  /// events; sets the aggregate front-end demand the bank queues see.
  std::uint64_t arrival_gap_cycles = 16;
  /// Per-shard dispatch-queue watermark: the dispatcher stops a window once
  /// any back queue reaches this many events (the round in flight completes,
  /// so momentary overshoot is bounded by tenants * tenant_batch).
  std::size_t queue_capacity = 4096;
  /// Events pulled from one tenant per dispatch round (batch amortization).
  std::size_t tenant_batch = 256;
  /// Number of tenant streams the run will be driven by. Fixed up front so
  /// each tenant's disjoint logical slice (tenant_region_lines()) is known
  /// before any source is constructed; run() requires exactly this many
  /// add_tenant calls.
  std::uint32_t tenants = 16;
  /// Master seed; every per-shard and per-tenant stream derives from it.
  std::uint64_t seed = 1;
  /// Optional content-aware DRAM front tier, instantiated once per shard
  /// (capacity_lines is the per-shard payload budget). Disabled by default;
  /// when disabled the run — and its pinned checksum — is byte-identical to
  /// the tier-less engine. When enabled, each shard's tier sits between the
  /// dispatch queue and the shard's controller+PcmSystem: only tier
  /// evictions reach the bank, tagged with the tenant that last wrote them.
  FrontTierConfig tier;
};

/// Cumulative per-tenant accounting, summed across shards in shard order.
struct ShardedTenantResult {
  std::uint64_t writes = 0;          ///< write-backs dispatched for this tenant
  std::uint64_t stored_writes = 0;   ///< serviced and durably stored
  std::uint64_t dropped_writes = 0;  ///< lost to dead/unrecyclable lines
  std::uint64_t line_deaths = 0;     ///< line deaths triggered by this tenant
  std::uint64_t flips = 0;           ///< programming pulses charged to it
  /// Lifetime proxy: the tenant's write count when its cumulative line
  /// deaths crossed dead_capacity_fraction of its logical slice (checked at
  /// epoch boundaries, so it is thread-count independent). 0 while alive.
  std::uint64_t writes_at_failure = 0;
  bool failed = false;
  bool exhausted = false;  ///< finite source ran dry before the run ended
  /// Write-backs the front tier absorbed for this tenant (tier runs only).
  /// writes = stored + dropped + absorbed + lines still tier-resident at end.
  std::uint64_t absorbed_writes = 0;
};

struct ShardedShardResult {
  SystemStats stats;                ///< the shard's own PcmSystem stats
  std::uint64_t events = 0;         ///< events routed to this shard
  double write_latency_mean = 0.0;  ///< modeled controller cycles
  std::uint64_t busy_cycles = 0;    ///< bank busy time (service bursts)
  std::uint64_t drained_at = 0;     ///< cycle the bank went idle
  double utilization = 0.0;         ///< busy / drained
  FrontTierStats tier;              ///< this shard's tier counters (if enabled)
  double tier_write_latency_mean = 0.0;  ///< modeled DRAM tier cycles
};

struct ShardedRunResult {
  SystemStats total;  ///< exact merge of every shard's stats (shard order)
  FrontTierStats tier;  ///< exact sum of per-shard tier counters (shard order)
  std::vector<ShardedShardResult> shards;
  std::vector<ShardedTenantResult> tenants;
  std::uint64_t events = 0;  ///< total events dispatched
  std::uint64_t epochs = 0;  ///< dispatch/execute windows executed
  /// Deterministic digest over per-shard stats, controller timing, and
  /// per-tenant accounting — byte-identical at any thread count; the CI
  /// gate pins it.
  std::uint64_t checksum = 0;
};

class ShardedPcmEngine {
 public:
  explicit ShardedPcmEngine(const ShardedEngineConfig& config);
  ~ShardedPcmEngine();
  ShardedPcmEngine(const ShardedPcmEngine&) = delete;
  ShardedPcmEngine& operator=(const ShardedPcmEngine&) = delete;

  /// Registers one tenant stream. Sources should be constructed against
  /// tenant_region_lines(); replayed addresses are folded onto the slice
  /// with a modulo either way. Call before run().
  void add_tenant(std::unique_ptr<TraceSource> source);

  /// Convenience population: fills all config.tenants slots with sampled
  /// tenants cycling through `apps` (tenant t runs apps[t % apps.size()]
  /// with stream seed mix64(seed, kTenantSeedSalt, t)).
  void add_sampled_tenants(const std::vector<AppProfile>& apps);

  /// Drives every tenant until `max_events` total write-backs have been
  /// dispatched (or every finite source ran dry). Callable once per engine.
  [[nodiscard]] ShardedRunResult run(std::uint64_t max_events);

  [[nodiscard]] std::uint32_t shards() const { return config_.map.shards(); }
  [[nodiscard]] std::uint32_t tenants() const { return config_.tenants; }
  /// Logical lines across all shards (per-shard logical lines x shards).
  [[nodiscard]] std::uint64_t global_logical_lines() const;
  /// Size of each tenant's disjoint logical slice.
  [[nodiscard]] std::uint64_t tenant_region_lines() const;

  static constexpr std::uint64_t kTenantSeedSalt = 0x7e4a;
  /// Salts separating the per-shard derived streams from each other and from
  /// every existing mix64 consumer (lifetime matrices use (seed, app, mode)).
  /// Public so equivalence tests can reconstruct a shard's exact seeds.
  static constexpr std::uint64_t kShardStartGapSalt = 0x5bA9;
  static constexpr std::uint64_t kShardEnduranceSalt = 0xeD17;

 private:
  struct Shard;
  struct Tenant;

  /// Pulls tenant batches round-robin into the back queues until the budget,
  /// the capacity watermark, or source exhaustion stops the window. Runs as
  /// region index 0 (or serially for the priming window).
  void dispatch_window(std::uint64_t max_events);
  void execute_shard(Shard& shard);
  /// One write-back reaching a shard's bank, from its queue or its front
  /// tier: charge the controller, write the shard's PcmSystem, and account
  /// the outcome to `tenant`.
  void forward(Shard& shard, std::uint64_t order, std::uint64_t local, const Block& data,
               std::uint32_t tenant);
  void check_tenant_failures(std::vector<ShardedTenantResult>& tenants) const;

  ShardedEngineConfig config_;
  std::vector<Shard> shards_;
  std::vector<Tenant> tenants_;
  std::uint64_t dispatched_ = 0;  ///< global dispatch counter (arrival order)
  std::uint32_t rr_cursor_ = 0;   ///< round-robin position, persists across windows
  bool ran_ = false;
};

}  // namespace pcmsim
