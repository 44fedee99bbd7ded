// Front-tier suite: policy-ordered victim choice, silent-store elimination
// correctness against a filterless reference, the tier's accounting
// identities under every policy, thread-count determinism of the tiered
// sharded engine, and the cache -> tier -> PCM plumb through the
// writeback_sink adapters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "sim/lifetime.hpp"
#include "sim/sharded_engine.hpp"
#include "tier/front_tier.hpp"
#include "tier/writeback_sink.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {
namespace {

/// Restores automatic worker-count selection when a test returns.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

/// A single-set tier config: capacity == ways, so every line lands in set 0
/// and eviction order is fully observable.
FrontTierConfig one_set(std::size_t ways, TierPolicy policy) {
  FrontTierConfig cfg;
  cfg.capacity_lines = ways;
  cfg.ways = ways;
  cfg.policy = policy;
  return cfg;
}

Block filled(std::uint8_t b) {
  Block d;
  d.fill(b);
  return d;
}

/// An incompressible payload: every u32 word is a distinct mix64 draw, so
/// neither BDI nor FPC finds a pattern and the probe reports 64 bytes.
Block random_block(std::uint64_t seed) {
  Block d;
  for (std::size_t i = 0; i < kBlockBytes; i += 8) {
    store_le(d, i, mix64(seed, i));
  }
  return d;
}

TEST(FrontTier, LruEvictsOldestWhenSetFills) {
  std::vector<FrontTier::Forward> out;
  FrontTier tier(one_set(3, TierPolicy::kLru),
                 [&](const FrontTier::Forward& f) { out.push_back(f); });
  EXPECT_EQ(tier.put(1, filled(1)), FrontTier::Outcome::kInserted);
  EXPECT_EQ(tier.put(2, filled(2)), FrontTier::Outcome::kInserted);
  EXPECT_EQ(tier.put(3, filled(3)), FrontTier::Outcome::kInserted);
  EXPECT_TRUE(out.empty());

  // Refresh line 1 so line 2 becomes the LRU victim.
  EXPECT_EQ(tier.put(1, filled(11)), FrontTier::Outcome::kHit);
  EXPECT_EQ(tier.put(4, filled(4)), FrontTier::Outcome::kInserted);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2u);
  EXPECT_EQ(out[0].data, filled(2));
  EXPECT_TRUE(tier.contains(1));
  ASSERT_NE(tier.peek(1), nullptr);
  EXPECT_EQ(*tier.peek(1), filled(11));  // hit coalesced the newer payload
}

TEST(FrontTier, CompPolicyEvictsCompressibleBeforeOlderIncompressible) {
  std::vector<FrontTier::Forward> out;
  FrontTier tier(one_set(4, TierPolicy::kComp),
                 [&](const FrontTier::Forward& f) { out.push_back(f); });
  const Block incompressible = random_block(99);
  tier.put(1, incompressible);   // oldest, but expensive to rewrite in PCM
  tier.put(2, filled(0));        // second-oldest, compresses to almost nothing
  tier.put(3, random_block(3));
  tier.put(4, random_block(4));

  // The LRU-half candidates are lines {1, 2}; comp retention keeps the
  // incompressible line 1 and sacrifices the compressible line 2, where plain
  // LRU would have evicted line 1.
  tier.put(5, random_block(5));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2u);
  EXPECT_TRUE(tier.contains(1));

  std::vector<FrontTier::Forward> lru_out;
  FrontTier lru(one_set(4, TierPolicy::kLru),
                [&](const FrontTier::Forward& f) { lru_out.push_back(f); });
  lru.put(1, incompressible);
  lru.put(2, filled(0));
  lru.put(3, random_block(3));
  lru.put(4, random_block(4));
  lru.put(5, random_block(5));
  ASSERT_EQ(lru_out.size(), 1u);
  EXPECT_EQ(lru_out[0].line, 1u);  // the control evicts by age alone
}

TEST(FrontTier, SilentStoreEliminationMatchesFilterlessReference) {
  // Differential check: a deterministic stream with heavy payload reuse runs
  // through a kSilent tier whose sink models PCM content exactly. Every
  // silent drop must happen only when PCM already holds the dropped payload,
  // and at the end every line's logical content (tier-resident copy, else
  // PCM copy) must equal the filterless reference (last offered value).
  std::unordered_map<LineAddr, Block> pcm;
  FrontTierConfig cfg;
  cfg.capacity_lines = 32;
  cfg.ways = 4;
  cfg.policy = TierPolicy::kSilent;
  FrontTier tier(cfg, [&](const FrontTier::Forward& f) { pcm[f.line] = f.data; });

  std::unordered_map<LineAddr, Block> reference;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const LineAddr line = mix64(7, i) % 48;        // more lines than capacity
    const std::uint64_t value = mix64(11, i) % 3;  // tiny pool: rewrites repeat
    const Block data = filled(static_cast<std::uint8_t>(line * 4 + value));
    const auto outcome = tier.put(line, data);
    if (outcome == FrontTier::Outcome::kSilentDrop) {
      const auto it = pcm.find(line);
      ASSERT_NE(it, pcm.end()) << "silent drop with no PCM-resident copy";
      EXPECT_EQ(it->second, data) << "silent drop of a payload PCM does not hold";
    }
    reference[line] = data;
  }
  EXPECT_GT(tier.stats().silent_drops, 0u);
  EXPECT_GT(tier.stats().evictions, 0u);

  for (const auto& [line, want] : reference) {
    const Block* resident = tier.peek(line);
    if (resident != nullptr) {
      EXPECT_EQ(*resident, want) << "line " << line;
    } else {
      const auto it = pcm.find(line);
      ASSERT_NE(it, pcm.end()) << "line " << line << " lost";
      EXPECT_EQ(it->second, want) << "line " << line;
    }
  }

  // The tier's shadow of PCM content must agree with the sink-side model for
  // every line PCM has seen (this is what makes dropping safe at all).
  for (const auto& [line, data] : pcm) {
    const Block* shadow = tier.pcm_resident(line);
    ASSERT_NE(shadow, nullptr) << "line " << line;
    EXPECT_EQ(*shadow, data) << "line " << line;
  }
}

TEST(FrontTier, SilentRewritesAreAbsorbedWithoutForwarding) {
  std::vector<FrontTier::Forward> out;
  FrontTier tier(one_set(2, TierPolicy::kSilent),
                 [&](const FrontTier::Forward& f) { out.push_back(f); });
  tier.put(1, filled(7));
  EXPECT_EQ(tier.put(1, filled(7)), FrontTier::Outcome::kSilentHit);
  // Evict line 1 to PCM, then re-offer the identical payload: dropped against
  // the PCM-resident copy without reallocation.
  tier.put(2, filled(2));
  tier.put(3, filled(3));  // evicts line 1
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 1u);
  EXPECT_EQ(tier.put(1, filled(7)), FrontTier::Outcome::kSilentDrop);
  EXPECT_FALSE(tier.contains(1));
  EXPECT_EQ(tier.stats().silent_hits, 1u);
  EXPECT_EQ(tier.stats().silent_drops, 1u);
  EXPECT_EQ(tier.stats().absorbed(), tier.stats().hits + 1);
}

class FrontTierAccounting : public ::testing::TestWithParam<TierPolicy> {};

TEST_P(FrontTierAccounting, IdentitiesHold) {
  // offered = hits + silent_drops + inserts, and every allocated entry is
  // either still resident or was evicted, which forwarded it exactly once.
  FrontTierConfig cfg;
  cfg.capacity_lines = 16;
  cfg.ways = 4;
  cfg.policy = GetParam();
  std::uint64_t forwards = 0;
  FrontTier tier(cfg, [&](const FrontTier::Forward&) { ++forwards; });
  for (std::uint64_t i = 0; i < 3000; ++i) {
    (void)tier.put(mix64(3, i) % 64, filled(static_cast<std::uint8_t>(mix64(5, i) % 5)));
  }
  const FrontTierStats& st = tier.stats();
  EXPECT_EQ(st.offered, 3000u);
  EXPECT_EQ(st.offered, st.hits + st.silent_drops + st.inserts);
  EXPECT_EQ(st.inserts, st.evictions + tier.resident_lines());
  EXPECT_EQ(forwards, st.evictions);
  EXPECT_LE(st.silent_hits, st.hits);
  EXPECT_LE(st.words_touched, st.words_forwarded);
  EXPECT_GT(st.words_forwarded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, FrontTierAccounting,
                         ::testing::Values(TierPolicy::kLru, TierPolicy::kSilent,
                                           TierPolicy::kComp),
                         [](const ::testing::TestParamInfo<TierPolicy>& param) {
                           return std::string(to_string(param.param));
                         });

TEST(FrontTier, TieredLifetimeIsDeterministicAndAmplifies) {
  // run_lifetime with a tier: offered >= serviced, the absorbed count closes
  // the gap with the still-resident lines, and the same config reproduces the
  // same result exactly.
  LifetimeConfig lc;
  lc.system.device.lines = 128;
  lc.system.device.endurance_mean = 80;
  lc.max_writes = 2'000'000;
  lc.tier = FrontTierConfig::for_kb(4, TierPolicy::kComp);
  const AppProfile& app = profile_by_name("gcc");
  const LifetimeResult a = run_lifetime(app, lc, 42);
  const LifetimeResult b = run_lifetime(app, lc, 42);
  EXPECT_EQ(a.offered_writes, b.offered_writes);
  EXPECT_EQ(a.writes_to_failure, b.writes_to_failure);
  EXPECT_EQ(a.tier.hits, b.tier.hits);
  EXPECT_TRUE(a.reached_failure);
  EXPECT_GT(a.offered_writes, a.writes_to_failure);  // the tier absorbed traffic
  EXPECT_GT(a.tier.absorbed(), 0u);
  EXPECT_GT(a.tier_write_latency_cycles, 0.0);

  // And the disabled-tier run reports offered == serviced (uniform ratios).
  LifetimeConfig off = lc;
  off.tier = FrontTierConfig{};
  const LifetimeResult c = run_lifetime(app, off, 42);
  EXPECT_EQ(c.offered_writes, c.writes_to_failure);
  EXPECT_EQ(c.tier.offered, 0u);
}

TEST(FrontTier, ShardedEngineWithTierDeterministicAcrossThreads) {
  const ThreadGuard guard;
  ShardedEngineConfig cfg;
  cfg.shard_system.device.lines = 65;
  cfg.shard_system.device.endurance_mean = 60;
  cfg.shard_system.device.endurance_cov = 0.2;
  cfg.map.channels = 2;
  cfg.map.banks_per_channel = 4;
  cfg.tenants = 8;
  cfg.seed = 7;
  cfg.queue_capacity = 256;  // several epochs, so dispatch/execute overlap runs
  cfg.tenant_batch = 64;
  cfg.tier = FrontTierConfig::for_kb(8, TierPolicy::kSilent);

  std::uint64_t reference = 0;
  std::uint64_t reference_absorbed = 0;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    set_parallel_threads(threads);
    ShardedPcmEngine engine(cfg);
    engine.add_sampled_tenants({profile_by_name("gcc"), profile_by_name("milc")});
    const ShardedRunResult r = engine.run(6000);
    EXPECT_EQ(r.tier.offered, 6000u);
    EXPECT_GT(r.tier.absorbed(), 0u);
    std::uint64_t absorbed = 0;
    for (const ShardedTenantResult& t : r.tenants) absorbed += t.absorbed_writes;
    EXPECT_EQ(absorbed, r.tier.absorbed());
    if (threads == 1) {
      reference = r.checksum;
      reference_absorbed = absorbed;
    } else {
      EXPECT_EQ(r.checksum, reference) << "threads=" << threads;
      EXPECT_EQ(absorbed, reference_absorbed) << "threads=" << threads;
    }
  }
}

TEST(FrontTier, HierarchyWritebacksFlowThroughTierIntoPcm) {
  // The full loop: CmpSimulator's dirty L2 victims -> tier_writeback_sink ->
  // FrontTier -> pcm_forward_sink -> PcmSystem. Every PCM write must be a
  // tier forward, and the tier's absorption shows up as PCM writes saved.
  SystemConfig sys;
  sys.device.lines = 1025;
  PcmSystem pcm(sys);
  FrontTier tier(FrontTierConfig::for_kb(8, TierPolicy::kComp), pcm_forward_sink(pcm));
  CmpSimulator sim(profile_by_name("gcc"), HierarchyConfig{}, 3,
                   tier_writeback_sink(tier));
  sim.run(150000);
  const FrontTierStats& st = tier.stats();
  EXPECT_GT(st.offered, 0u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(pcm.stats().writes, st.evictions);
  EXPECT_EQ(st.offered, st.hits + st.silent_drops + st.inserts);
  EXPECT_LT(pcm.stats().writes, st.offered);
}

TEST(FrontTier, ConfigContractsAreEnforced) {
  EXPECT_THROW(FrontTier(FrontTierConfig{}, [](const FrontTier::Forward&) {}),
               ContractViolation);
  FrontTierConfig cfg = one_set(2, TierPolicy::kLru);
  EXPECT_THROW(FrontTier(cfg, nullptr), ContractViolation);
  cfg.capacity_lines = 1;
  cfg.ways = 4;
  EXPECT_THROW(FrontTier(cfg, [](const FrontTier::Forward&) {}), ContractViolation);

  // put_at arrival order is a contract, matching the controller's.
  FrontTier tier(one_set(2, TierPolicy::kLru), [](const FrontTier::Forward&) {});
  (void)tier.put_at(5, 1, filled(1));
  EXPECT_THROW((void)tier.put_at(4, 2, filled(2)), ContractViolation);
}

}  // namespace
}  // namespace pcmsim
