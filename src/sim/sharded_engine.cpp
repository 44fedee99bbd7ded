#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trace/prefetch_source.hpp"
#include "trace/sampled_source.hpp"

namespace pcmsim {

/// One event as routed to its owning shard: the shard-local line plus the
/// global dispatch index that orders it on the shard's controller clock.
struct ShardEvent {
  std::uint64_t local = 0;
  std::uint64_t order = 0;
  std::uint32_t tenant = 0;
  Block data{};
};

/// Per-shard, per-tenant accounting slots. Each shard writes only its own
/// row, so the execute phase needs no synchronization; sums across shards
/// happen on the caller thread at epoch boundaries and at the end.
struct TenantAcc {
  std::uint64_t writes = 0;
  std::uint64_t stored = 0;
  std::uint64_t dropped = 0;
  std::uint64_t deaths = 0;
  std::uint64_t flips = 0;
  std::uint64_t absorbed = 0;  ///< write-backs the shard's front tier ate
};

struct ShardedPcmEngine::Shard {
  Shard(const SystemConfig& sys, const ControllerConfig& ctrl, std::uint32_t ntenants)
      : system(std::make_unique<PcmSystem>(sys)), controller(ctrl), acc(ntenants) {}

  std::unique_ptr<PcmSystem> system;
  MemoryController controller;
  std::vector<ShardEvent> front;  ///< executing this epoch
  std::vector<ShardEvent> back;   ///< being filled by the dispatcher
  std::vector<TenantAcc> acc;
  std::uint64_t events = 0;
  /// Optional per-shard front tier; its forward sink drives this shard's
  /// controller + PcmSystem, so tier state is as shard-private as the rest.
  std::optional<FrontTier> tier;
  std::uint64_t cur_order = 0;  ///< order of the event being executed (sink arrival)
};

struct ShardedPcmEngine::Tenant {
  std::unique_ptr<TraceSource> source;
  std::unique_ptr<PrefetchTraceSource> prefetched;  ///< after source: destroyed first
  TraceSource* active = nullptr;
  bool exhausted = false;
};

ShardedPcmEngine::ShardedPcmEngine(const ShardedEngineConfig& config) : config_(config) {
  config_.map.validate();
  expects(config_.tenants >= 1, "need at least one tenant stream");
  expects(config_.tenant_batch >= 1, "tenant batch must be at least one event");
  expects(config_.queue_capacity >= 1, "shard queues need capacity for at least one event");
  expects(config_.shard_system.device.lines >= 2,
          "each shard needs at least one logical line plus the gap");
  expects(global_logical_lines() >= config_.tenants,
          "need at least one logical line per tenant");

  ControllerConfig ctrl = config_.controller;
  ctrl.banks = 1;  // a shard IS one bank; cross-bank parallelism is the shards
  const std::uint32_t nshards = config_.map.shards();
  shards_.reserve(nshards);
  for (std::uint32_t s = 0; s < nshards; ++s) {
    SystemConfig sys = config_.shard_system;
    sys.seed = mix64(config_.seed, s, kShardStartGapSalt);
    sys.device.seed = mix64(config_.seed, s, kShardEnduranceSalt);
    shards_.emplace_back(sys, ctrl, config_.tenants);
    shards_.back().front.reserve(config_.queue_capacity + config_.tenant_batch);
    shards_.back().back.reserve(config_.queue_capacity + config_.tenant_batch);
  }
  if (config_.tier.enabled()) {
    // Tiers are wired after the shard vector is final (reserve above) so the
    // sink's captured Shard* stays valid for the engine's lifetime. The sink
    // runs inside execute_shard, so everything it touches is shard-private.
    FrontTierConfig tier_cfg = config_.tier;
    // The engine passes its global dispatch order to put_at, so the tier's
    // DRAM clock must tick at the engine's arrival pacing, not its own.
    tier_cfg.arrival_gap_cycles = config_.arrival_gap_cycles;
    for (Shard& s : shards_) {
      Shard* sp = &s;
      sp->tier.emplace(tier_cfg, [this, sp](const FrontTier::Forward& fwd) {
        MemRequest req;
        req.arrival_cycle = sp->cur_order * config_.arrival_gap_cycles;
        req.is_read = false;
        req.bank = 0;
        sp->controller.submit(req);
        const auto out = sp->system->write(fwd.line % sp->system->logical_lines(), fwd.data);
        TenantAcc& acc = sp->acc[fwd.tag];
        if (out.stored) {
          ++acc.stored;
          acc.flips += out.flips;
        } else {
          ++acc.dropped;
        }
        if (out.line_died) ++acc.deaths;
      });
    }
  }
  tenants_.reserve(config_.tenants);
}

ShardedPcmEngine::~ShardedPcmEngine() = default;

std::uint64_t ShardedPcmEngine::global_logical_lines() const {
  // Each shard's Start-Gap keeps one spare slot, exactly as a standalone
  // PcmSystem does.
  return static_cast<std::uint64_t>(config_.shard_system.device.lines - 1) *
         config_.map.shards();
}

std::uint64_t ShardedPcmEngine::tenant_region_lines() const {
  return global_logical_lines() / config_.tenants;
}

void ShardedPcmEngine::add_tenant(std::unique_ptr<TraceSource> source) {
  expects(!ran_, "tenants must be registered before run()");
  expects(tenants_.size() < config_.tenants, "all configured tenant slots are filled");
  expects(source != nullptr, "tenant source must not be null");
  Tenant t;
  t.source = std::move(source);
  if (config_.prefetch) {
    t.prefetched = std::make_unique<PrefetchTraceSource>(*t.source);
    t.active = t.prefetched.get();
  } else {
    t.active = t.source.get();
  }
  tenants_.push_back(std::move(t));
}

void ShardedPcmEngine::add_sampled_tenants(const std::vector<AppProfile>& apps) {
  expects(!apps.empty(), "need at least one app profile");
  const std::uint64_t region = tenant_region_lines();
  for (std::uint32_t t = static_cast<std::uint32_t>(tenants_.size()); t < config_.tenants;
       ++t) {
    add_tenant(std::make_unique<SampledTraceSource>(
        apps[t % apps.size()], region, mix64(config_.seed, kTenantSeedSalt, t)));
  }
}

void ShardedPcmEngine::dispatch_window(std::uint64_t max_events) {
  const std::uint64_t region = tenant_region_lines();
  std::vector<WritebackEvent> batch(config_.tenant_batch);
  const auto any_queue_at_capacity = [&] {
    return std::any_of(shards_.begin(), shards_.end(), [&](const Shard& s) {
      return s.back.size() >= config_.queue_capacity;
    });
  };

  // The round-robin cursor persists across windows (rr_cursor_): a window
  // that stops mid-round resumes with the next tenant, so the global dispatch
  // sequence — and therefore every modeled result — depends only on the
  // seed, the tenant set, and tenant_batch, never on where the capacity
  // watermark happened to fall (asserted by the epoch-partitioning
  // invariance test).
  while (dispatched_ < max_events && !any_queue_at_capacity()) {
    bool progressed = false;
    for (std::size_t visited = 0; visited < tenants_.size(); ++visited) {
      const std::uint32_t t = rr_cursor_;
      rr_cursor_ = (rr_cursor_ + 1) % static_cast<std::uint32_t>(tenants_.size());
      Tenant& tenant = tenants_[t];
      if (tenant.exhausted) continue;
      const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
          config_.tenant_batch, max_events - dispatched_));
      const std::size_t n = tenant.active->next_batch(std::span(batch.data(), want));
      if (n < want) tenant.exhausted = true;  // finite source ran dry
      for (std::size_t i = 0; i < n; ++i) {
        // Fold onto the tenant's disjoint logical slice, then interleave the
        // global address across the shards. For sources constructed against
        // tenant_region_lines() the fold is the identity.
        const std::uint64_t global =
            static_cast<std::uint64_t>(t) * region + batch[i].line % region;
        Shard& shard = shards_[config_.map.shard_of(global)];
        shard.back.push_back(ShardEvent{config_.map.local_of(global), dispatched_, t,
                                        batch[i].data});
        ++dispatched_;
      }
      if (n > 0) progressed = true;
      if (dispatched_ >= max_events || any_queue_at_capacity()) return;
    }
    if (!progressed) return;  // every source ran dry
  }
}

void ShardedPcmEngine::execute_shard(Shard& shard) {
  if (shard.tier) {
    // Tiered path: the event is offered to the shard's front tier at its
    // global dispatch order (DRAM latency is charged by the tier's embedded
    // controller); only evictions reach the bank model + PcmSystem, through
    // the forward sink wired in the constructor. The victim a forward
    // charges may belong to a different tenant than the event that evicted
    // it — the Forward's tag carries the victim's last writer.
    for (const ShardEvent& ev : shard.front) {
      shard.cur_order = ev.order;
      TenantAcc& acc = shard.acc[ev.tenant];
      ++acc.writes;
      const auto outcome = shard.tier->put_at(ev.order, ev.local, ev.data, ev.tenant);
      if (outcome != FrontTier::Outcome::kInserted) ++acc.absorbed;
    }
    shard.events += shard.front.size();
    return;
  }
  for (const ShardEvent& ev : shard.front) {
    // Charge the DDR-style bank model first (queueing + turnaround on this
    // shard's bank), then execute the write against the shard's PcmSystem.
    MemRequest req;
    req.arrival_cycle = ev.order * config_.arrival_gap_cycles;
    req.is_read = false;
    req.bank = 0;
    shard.controller.submit(req);

    const auto out = shard.system->write(ev.local, ev.data);
    TenantAcc& acc = shard.acc[ev.tenant];
    ++acc.writes;
    if (out.stored) {
      ++acc.stored;
      acc.flips += out.flips;
    } else {
      ++acc.dropped;
    }
    if (out.line_died) ++acc.deaths;
  }
  shard.events += shard.front.size();
}

void ShardedPcmEngine::check_tenant_failures(
    std::vector<ShardedTenantResult>& tenants) const {
  // A tenant fails when its cumulative line deaths reach the capacity
  // criterion applied to its own logical slice — the per-tenant analogue of
  // PcmSystem::failed(). Checked at epoch boundaries only, so the recorded
  // failure point is identical at any thread count.
  const auto threshold = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(config_.shard_system.dead_capacity_fraction *
                                    static_cast<double>(tenant_region_lines())));
  for (std::uint32_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].failed) continue;
    std::uint64_t deaths = 0;
    std::uint64_t writes = 0;
    for (const Shard& s : shards_) {
      deaths += s.acc[t].deaths;
      writes += s.acc[t].writes;
    }
    if (deaths >= threshold) {
      tenants[t].failed = true;
      tenants[t].writes_at_failure = writes;
    }
  }
}

ShardedRunResult ShardedPcmEngine::run(std::uint64_t max_events) {
  expects(!ran_, "a ShardedPcmEngine can only run once");
  expects(tenants_.size() == config_.tenants,
          "run() requires every configured tenant slot to be filled");
  ran_ = true;

  ShardedRunResult result;
  result.tenants.resize(config_.tenants);

  // Priming window: fill the back queues serially, then promote them.
  dispatch_window(max_events);
  for (Shard& s : shards_) std::swap(s.front, s.back);

  const auto any_front = [&] {
    return std::any_of(shards_.begin(), shards_.end(),
                       [](const Shard& s) { return !s.front.empty(); });
  };

  while (any_front()) {
    ++result.epochs;
    // One pool region per epoch: index 0 dispatches the next window into the
    // back queues while indices 1..S execute the front queues. No index
    // touches another index's state; the region join is the epoch barrier.
    parallel_for(shards_.size() + 1, [&](std::size_t idx) {
      if (idx == 0) {
        dispatch_window(max_events);
      } else {
        execute_shard(shards_[idx - 1]);
      }
    });
    check_tenant_failures(result.tenants);
    for (Shard& s : shards_) {
      s.front.clear();
      std::swap(s.front, s.back);
    }
  }

  // Assemble: controllers drain, stats merge exactly in shard order, tenant
  // rows sum across shards in shard order — all fixed-order reductions.
  result.events = dispatched_;
  result.shards.reserve(shards_.size());
  for (Shard& s : shards_) {
    s.controller.finish();
    ShardedShardResult row;
    row.stats = s.system->stats();
    row.events = s.events;
    row.write_latency_mean = s.controller.write_latency().mean();
    row.busy_cycles = s.controller.busy_cycles();
    row.drained_at = s.controller.drained_at();
    row.utilization = row.drained_at > 0 ? static_cast<double>(row.busy_cycles) /
                                               static_cast<double>(row.drained_at)
                                         : 0.0;
    if (s.tier) {
      // Like run_lifetime, the tier is not flushed: lines still resident in
      // DRAM at the end never cost PCM writes.
      s.tier->finish_timing();
      row.tier = s.tier->stats();
      row.tier_write_latency_mean = s.tier->controller()->write_latency().mean();
      result.tier.merge(row.tier);
    }
    result.total.merge(row.stats);
    result.shards.push_back(std::move(row));
  }
  for (std::uint32_t t = 0; t < config_.tenants; ++t) {
    ShardedTenantResult& row = result.tenants[t];
    for (const Shard& s : shards_) {
      const TenantAcc& acc = s.acc[t];
      row.writes += acc.writes;
      row.stored_writes += acc.stored;
      row.dropped_writes += acc.dropped;
      row.line_deaths += acc.deaths;
      row.flips += acc.flips;
      row.absorbed_writes += acc.absorbed;
    }
    row.exhausted = tenants_[t].exhausted;
  }

  // Deterministic digest: integer-valued observables only (no floats), in
  // fixed shard/tenant order.
  std::uint64_t h = 0x53484152445A31ull;  // "SHARDZ1"
  const auto fold = [&h](std::uint64_t v) { h = mix64(h, v); };
  fold(result.events);
  fold(result.epochs);
  for (const ShardedShardResult& s : result.shards) {
    fold(s.stats.writes);
    fold(s.stats.compressed_writes);
    fold(s.stats.uncompressed_writes);
    fold(s.stats.dropped_writes);
    fold(s.stats.uncorrectable_events);
    fold(s.stats.window_slides);
    fold(s.stats.recycled_lines);
    fold(s.stats.gap_moves);
    fold(s.stats.lines_dead);
    fold(static_cast<std::uint64_t>(s.stats.flips_per_write.sum()));
    fold(static_cast<std::uint64_t>(s.stats.compressed_size.sum()));
    fold(s.events);
    fold(s.busy_cycles);
    fold(s.drained_at);
  }
  for (const ShardedTenantResult& t : result.tenants) {
    fold(t.writes);
    fold(t.stored_writes);
    fold(t.dropped_writes);
    fold(t.line_deaths);
    fold(t.flips);
    fold(t.writes_at_failure);
    fold(t.failed ? 1 : 0);
    fold(t.exhausted ? 1 : 0);
  }
  // Tier observables join the digest only when the tier runs: a disabled-tier
  // run folds exactly the same sequence as the pre-tier engine, so the pinned
  // no-tier checksums survive unchanged.
  if (config_.tier.enabled()) {
    for (const ShardedShardResult& s : result.shards) {
      fold(s.tier.offered);
      fold(s.tier.hits);
      fold(s.tier.silent_hits);
      fold(s.tier.silent_drops);
      fold(s.tier.inserts);
      fold(s.tier.evictions);
      fold(s.tier.dedup_shares);  // always zero; folded so the pinned digest holds
      fold(s.tier.fp_false_hits);
      fold(s.tier.words_forwarded);
      fold(s.tier.words_touched);
    }
    for (const ShardedTenantResult& t : result.tenants) fold(t.absorbed_writes);
  }
  result.checksum = h;
  return result;
}

}  // namespace pcmsim
