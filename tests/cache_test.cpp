#include <gtest/gtest.h>

#include <map>

#include "cache/hierarchy.hpp"

namespace pcmsim {
namespace {

Block block_of(std::uint8_t v) {
  Block b{};
  b.fill(v);
  return b;
}

TEST(CacheLevel, HitsAfterFill) {
  CacheLevel c("t", 8 * kBlockBytes, 2);
  const Block fill = block_of(1);
  EXPECT_FALSE(c.access(100, false, nullptr, fill).hit);
  EXPECT_TRUE(c.access(100, false, nullptr, fill).hit);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheLevel, StoresMarkDirtyAndWriteBackOnEviction) {
  // Direct-mapped 4-line cache: lines hashing to the same set evict each other.
  CacheLevel c("t", 4 * kBlockBytes, 1);
  const Block fill = block_of(0);
  const Block dirty = block_of(0xAB);

  (void)c.access(1, true, &dirty, fill);
  // Find another address mapping to the same set by brute force.
  LineAddr conflict = 0;
  for (LineAddr a = 2; a < 4096; ++a) {
    CacheLevel probe("p", 4 * kBlockBytes, 1);
    (void)probe.access(1, false, nullptr, fill);
    if (!probe.access(a, false, nullptr, fill).hit && probe.contains(a) && !probe.contains(1)) {
      conflict = a;
      break;
    }
  }
  ASSERT_NE(conflict, 0u);
  const auto r = c.access(conflict, false, nullptr, fill);
  ASSERT_TRUE(r.writeback.has_value());
  EXPECT_EQ(r.writeback->line, 1u);
  EXPECT_EQ(r.writeback->data, dirty);
}

TEST(CacheLevel, LruEvictsLeastRecentlyUsed) {
  // One set of 2 ways: find three addresses in the same set.
  CacheLevel c("t", 2 * kBlockBytes, 2);  // 1 set, 2 ways
  const Block fill = block_of(0);
  (void)c.access(10, false, nullptr, fill);
  (void)c.access(20, false, nullptr, fill);
  (void)c.access(10, false, nullptr, fill);  // 10 is now MRU
  (void)c.access(30, false, nullptr, fill);  // must evict 20
  EXPECT_TRUE(c.contains(10));
  EXPECT_FALSE(c.contains(20));
  EXPECT_TRUE(c.contains(30));
}

TEST(CacheLevel, InvalidateReturnsDirtyData) {
  CacheLevel c("t", 8 * kBlockBytes, 2);
  const Block fill = block_of(0);
  const Block dirty = block_of(7);
  (void)c.access(5, true, &dirty, fill);
  const auto wb = c.invalidate(5);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(wb->data, dirty);
  EXPECT_FALSE(c.contains(5));
  EXPECT_FALSE(c.invalidate(5).has_value());  // already gone
}

TEST(CacheLevel, PeekDoesNotDisturbState) {
  CacheLevel c("t", 8 * kBlockBytes, 2);
  const Block fill = block_of(3);
  (void)c.access(42, false, nullptr, fill);
  const std::uint64_t hits = c.hits();
  EXPECT_NE(c.peek(42), nullptr);
  EXPECT_EQ(*c.peek(42), fill);
  EXPECT_EQ(c.peek(43), nullptr);
  EXPECT_EQ(c.hits(), hits);
}

TEST(Hierarchy, DirtyDataFlowsL1ToL2ToMemory) {
  HierarchyConfig cfg;
  cfg.cores = 1;
  cfg.l1_bytes = 2 * kBlockBytes;  // tiny caches to force evictions
  cfg.l1_assoc = 1;
  cfg.l2_bytes = 8 * kBlockBytes;
  cfg.l2_assoc = 1;
  std::map<LineAddr, Block> memory_state;
  CmpHierarchy h(cfg, [&](const Writeback& wb) { memory_state[wb.line] = wb.data; });

  // Store distinct data to many lines; evictions must eventually surface
  // every dirty value at the memory interface with the right content.
  std::map<LineAddr, Block> expected;
  for (LineAddr a = 0; a < 64; ++a) {
    Block data{};
    store_le<std::uint64_t>(data, 0, a * 1000 + 7);
    expected[a] = data;
    h.access(0, a, true, &data, block_of(0));
  }
  EXPECT_GT(h.writebacks_to_memory(), 30u);
  for (const auto& [line, data] : memory_state) {
    EXPECT_EQ(data, expected.at(line)) << "line " << line;
  }
}

TEST(Hierarchy, InclusiveBackInvalidationMergesDirtyL1Copy) {
  HierarchyConfig cfg;
  cfg.cores = 2;
  cfg.l1_bytes = 4 * kBlockBytes;
  cfg.l1_assoc = 2;
  cfg.l2_bytes = 2 * kBlockBytes;  // tiny inclusive L2: evictions frequent
  cfg.l2_assoc = 1;
  std::map<LineAddr, Block> memory_state;
  CmpHierarchy h(cfg, [&](const Writeback& wb) { memory_state[wb.line] = wb.data; });

  const Block dirty = block_of(0x5A);
  h.access(0, 1, true, &dirty, block_of(0));
  // Touch other lines until line 1 is evicted from L2 (and back-invalidated
  // from core 0's L1); its dirty L1 content must reach memory.
  for (LineAddr a = 100; a < 140 && !memory_state.count(1); ++a) {
    h.access(1, a, false, nullptr, block_of(0));
  }
  ASSERT_TRUE(memory_state.count(1));
  EXPECT_EQ(memory_state[1], dirty);
}

TEST(CmpSimulator, WpkiTracksTableThreeTargets) {
  // Coarse check on two contrasting apps; the table3 bench reports all 15.
  for (const char* name : {"lbm", "astar"}) {
    const auto& app = profile_by_name(name);
    CmpSimulator sim(app, HierarchyConfig{}, 5);
    sim.run(30000);
    sim.reset_stats();
    sim.run(60000);
    EXPECT_GT(sim.wpki(), app.wpki * 0.3) << name;
    EXPECT_LT(sim.wpki(), app.wpki * 3.0) << name;
  }
}

TEST(CmpSimulator, WritebacksCarryCompressibleValues) {
  const auto& app = profile_by_name("zeusmp");
  std::uint64_t zeroish = 0;
  std::uint64_t total = 0;
  CmpSimulator sim(app, HierarchyConfig{}, 6, [&](const Writeback& wb) {
    ++total;
    std::size_t zero_bytes = 0;
    for (auto b : wb.data) zero_bytes += b == 0 ? 1u : 0u;
    zeroish += zero_bytes > 48 ? 1u : 0u;
  });
  sim.run(40000);
  ASSERT_GT(total, 50u);
  EXPECT_GT(static_cast<double>(zeroish) / static_cast<double>(total), 0.8)
      << "zeusmp write-backs must be zero-dominated";
}

// Pins the capture stream itself: every write-back's (line, data), in order,
// folded into one hash. Any change to the hierarchy, the core streams or the
// store values moves it; the value was recorded before fills became lazy.
TEST(CmpSimulator, CaptureStreamIsPinned) {
  std::uint64_t h = 0;
  std::uint64_t writebacks = 0;
  CmpSimulator sim(profile_by_name("gcc"), HierarchyConfig{}, 3, [&](const Writeback& wb) {
    ++writebacks;
    h = mix64(h, wb.line);
    for (std::size_t off = 0; off < kBlockBytes; off += 8) {
      h = mix64(h, load_le<std::uint64_t>(wb.data, off));
    }
  });
  sim.run(60000);
  EXPECT_EQ(writebacks, 2014u);
  EXPECT_EQ(h, 18086944438976021854ull);
}

}  // namespace
}  // namespace pcmsim
