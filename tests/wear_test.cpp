#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "wear/rotation.hpp"
#include "wear/start_gap.hpp"

namespace pcmsim {
namespace {

TEST(StaticRandomizer, IsAPermutation) {
  for (std::uint64_t n : {1ull, 7ull, 64ull, 1000ull, 4096ull}) {
    StaticRandomizer r(n, 99);
    std::set<std::uint64_t> seen;
    for (std::uint64_t x = 0; x < n; ++x) {
      const std::uint64_t y = r.map(x);
      ASSERT_LT(y, n);
      EXPECT_TRUE(seen.insert(y).second) << "collision at " << x;
      EXPECT_EQ(r.unmap(y), x);
    }
  }
}

TEST(StaticRandomizer, DifferentSeedsDiffer) {
  StaticRandomizer a(1024, 1);
  StaticRandomizer b(1024, 2);
  int same = 0;
  for (std::uint64_t x = 0; x < 1024; ++x) {
    if (a.map(x) == b.map(x)) ++same;
  }
  EXPECT_LT(same, 32);  // ~1/1024 chance per element
}

TEST(StartGap, MappingIsAlwaysInjectiveAndAvoidsGap) {
  StartGap sg(100, /*gap_interval=*/3, /*randomize=*/false, 0);
  for (int step = 0; step < 500; ++step) {
    std::set<std::uint64_t> used;
    for (std::uint64_t la = 0; la < 100; ++la) {
      const std::uint64_t pa = sg.map(la);
      ASSERT_LT(pa, 101u);
      ASSERT_NE(pa, sg.gap());
      ASSERT_TRUE(used.insert(pa).second);
    }
    (void)sg.on_write();
  }
}

TEST(StartGap, GapMovesEveryInterval) {
  StartGap sg(10, /*gap_interval=*/5, false, 0);
  int moves = 0;
  for (int w = 0; w < 50; ++w) {
    if (sg.on_write()) ++moves;
  }
  EXPECT_EQ(moves, 10);
  EXPECT_EQ(sg.total_moves(), 10u);
}

TEST(StartGap, MoveSourceBecomesNewGap) {
  StartGap sg(4, 1, false, 0);  // physical = 5 slots, gap starts at 4
  const auto mv = sg.on_write();
  ASSERT_TRUE(mv.has_value());
  EXPECT_EQ(mv->to, 4u);
  EXPECT_EQ(mv->from, 3u);
  EXPECT_EQ(sg.gap(), 3u);
}

TEST(StartGap, FullRevolutionAdvancesStart) {
  StartGap sg(4, 1, false, 0);
  const std::uint64_t p = 5;
  EXPECT_EQ(sg.start(), 0u);
  for (std::uint64_t i = 0; i < p; ++i) (void)sg.on_write();
  EXPECT_EQ(sg.start(), 1u);
  for (std::uint64_t i = 0; i < p; ++i) (void)sg.on_write();
  EXPECT_EQ(sg.start(), 2u);
}

TEST(StartGap, EveryLineVisitsEveryPhysicalSlot) {
  // After enough revolutions, logical line 0 must have occupied every slot —
  // the core wear-leveling property.
  StartGap sg(8, 1, false, 0);
  std::set<std::uint64_t> slots;
  for (int w = 0; w < 9 * 9 + 1; ++w) {
    slots.insert(sg.map(0));
    (void)sg.on_write();
  }
  EXPECT_EQ(slots.size(), 9u);
}

TEST(StartGap, TabledMapMatchesRandomizerRotationAndGapSkip) {
  // The randomized map is tabled at construction; it must equal the
  // definitional formulation — randomize, rotate by start mod N, skip the
  // gap — at every step of at least one full gap revolution.
  for (std::uint64_t n : {1ull, 2ull, 257ull, 767ull, 1000ull}) {
    const std::uint64_t seed = 17 + n;
    StartGap sg(n, /*gap_interval=*/1, /*randomize=*/true, seed);
    const StaticRandomizer r(n, seed);
    // n + 1 moves complete one revolution of the gap; go a little further
    // so start_ has advanced too.
    for (std::uint64_t step = 0; step < n + 3; ++step) {
      for (std::uint64_t la = 0; la < n; ++la) {
        std::uint64_t pa = (r.map(la) + sg.start()) % n;
        if (pa >= sg.gap()) pa += 1;
        ASSERT_EQ(sg.map(la), pa) << "n " << n << " step " << step << " la " << la;
      }
      (void)sg.on_write();
    }
    // The (n+1)-th move wraps the gap and advances start (mod n).
    EXPECT_EQ(sg.start(), 1 % n) << "n " << n << ": no full revolution";
  }
}

TEST(Rotation, AdvancesOffsetOnSaturation) {
  IntraLineRotator rot(2, /*threshold=*/4, /*step=*/1);
  EXPECT_EQ(rot.offset_bytes(0), 0u);
  for (int i = 0; i < 3; ++i) rot.on_write(0);
  EXPECT_EQ(rot.offset_bytes(0), 0u);
  rot.on_write(0);
  EXPECT_EQ(rot.offset_bytes(0), 1u);
  EXPECT_EQ(rot.rotations(0), 1u);
  EXPECT_EQ(rot.offset_bytes(1), 0u) << "banks are independent";
}

TEST(Rotation, OffsetWrapsAroundTheLine) {
  IntraLineRotator rot(1, 1, /*step=*/7);
  for (int i = 0; i < 64; ++i) rot.on_write(0);
  // 64 rotations of 7 bytes: 64*7 mod 64 = 0.
  EXPECT_EQ(rot.offset_bytes(0), 0u);
  EXPECT_EQ(rot.rotations(0), 64u);
}

TEST(Rotation, CoversAllBytePositions) {
  IntraLineRotator rot(1, 1, 1);
  std::set<std::uint32_t> offsets;
  for (int i = 0; i < 64; ++i) {
    offsets.insert(rot.offset_bytes(0));
    rot.on_write(0);
  }
  EXPECT_EQ(offsets.size(), 64u);
}

}  // namespace
}  // namespace pcmsim
