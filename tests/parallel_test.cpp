// Unit tests for the global thread pool: index coverage and result ordering,
// exception propagation, nested-region safety, runtime resizing, and the
// rejection of malformed thread-count inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"

namespace pcmsim {
namespace {

/// Restores automatic thread selection after each test.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

TEST_F(ParallelTest, ForRunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    set_parallel_threads(threads);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ForWithZeroOrOneIndex) {
  set_parallel_threads(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, MapPreservesResultOrdering) {
  set_parallel_threads(7);
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  const auto out = parallel_map(items, [](const int x) { return x * x; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(out[i], items[i] * items[i]);
  }
}

TEST_F(ParallelTest, ExceptionPropagatesAndPoolSurvives) {
  set_parallel_threads(4);
  EXPECT_THROW(parallel_for(100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> sum{0};
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST_F(ParallelTest, NestedRegionsRunInlineWithoutDeadlock) {
  set_parallel_threads(4);
  constexpr std::size_t outer = 8;
  constexpr std::size_t inner = 16;
  std::vector<std::atomic<int>> counts(outer);
  parallel_for(outer, [&](std::size_t o) {
    parallel_for(inner, [&](std::size_t) { ++counts[o]; });
  });
  for (std::size_t o = 0; o < outer; ++o) EXPECT_EQ(counts[o].load(), inner);
}

TEST_F(ParallelTest, ForeignThreadRegionDegradesToInlineWhilePoolBusy) {
  // A region opened from a thread the pool does not own, while another
  // region is active, must run inline instead of blocking: the active
  // region's tasks may be waiting on that thread's output. Index 0 is always claimed first,
  // so the helper thread runs while the other tasks hold the region open;
  // with a blocking pool this test deadlocks.
  set_parallel_threads(4);
  std::atomic<bool> done{false};
  std::atomic<int> inner_sum{0};
  parallel_for(4, [&](std::size_t o) {
    if (o != 0) {
      while (!done.load()) std::this_thread::yield();
      return;
    }
    std::thread helper([&] {
      parallel_for(64, [&](std::size_t i) { inner_sum += static_cast<int>(i); });
      done.store(true);
    });
    helper.join();
  });
  EXPECT_EQ(inner_sum.load(), 64 * 63 / 2);
}

TEST_F(ParallelTest, SetThreadsOverridesAndZeroRestoresAuto) {
  set_parallel_threads(3);
  EXPECT_EQ(parallel_threads(), 3u);
  set_parallel_threads(1);
  EXPECT_EQ(parallel_threads(), 1u);
  set_parallel_threads(0);
  EXPECT_GE(parallel_threads(), 1u);
}

TEST_F(ParallelTest, CliFlagSetsThreadCount) {
  const char* argv[] = {"prog", "--threads", "5"};
  const CliArgs args(3, argv, {"threads"});
  EXPECT_EQ(set_threads_from_cli(args), 5u);
  EXPECT_EQ(parallel_threads(), 5u);
}

TEST_F(ParallelTest, NegativeThreadsFlagIsRejectedAndZeroMeansAuto) {
  set_parallel_threads(2);
  const char* bad[] = {"prog", "--threads", "-3"};
  const CliArgs bad_args(3, bad, {"threads"});
  try {
    (void)set_threads_from_cli(bad_args);
    ADD_FAILURE() << "--threads -3 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos) << e.what();
  }
  EXPECT_EQ(parallel_threads(), 2u);  // the bad flag changed nothing

  const char* zero[] = {"prog", "--threads", "0"};
  const CliArgs zero_args(3, zero, {"threads"});
  EXPECT_EQ(set_threads_from_cli(zero_args), 2u);  // 0 = auto: no override
}

TEST_F(ParallelTest, MalformedThreadsEnvIsRejectedByName) {
  // Only consulted under automatic selection, so no override may be active.
  set_parallel_threads(0);
  const char* saved = std::getenv("PCMSIM_THREADS");
  const std::string restore = saved ? saved : "";
  for (const char* value : {"-3", "abc", "4x", "18446744073709551616"}) {
    ::setenv("PCMSIM_THREADS", value, 1);
    try {
      (void)parallel_threads();
      ADD_FAILURE() << "PCMSIM_THREADS=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("PCMSIM_THREADS"), std::string::npos) << e.what();
    }
  }
  ::setenv("PCMSIM_THREADS", "3", 1);
  EXPECT_EQ(parallel_threads(), 3u);
  ::setenv("PCMSIM_THREADS", "", 1);  // empty counts as unset
  EXPECT_GE(parallel_threads(), 1u);
  if (saved) {
    ::setenv("PCMSIM_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("PCMSIM_THREADS");
  }
}

TEST_F(ParallelTest, CliWithoutFlagKeepsCurrentCount) {
  set_parallel_threads(2);
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv, {"threads"});
  EXPECT_EQ(set_threads_from_cli(args), 2u);
}

}  // namespace
}  // namespace pcmsim
