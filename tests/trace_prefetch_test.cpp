// PrefetchTraceSource: the double-buffered decorator must deliver a stream
// byte-identical to its inner source at any consumer batch size and any
// parallel-engine thread count, end finite traces cleanly, shut down cleanly
// mid-stream, and leave lifetime results unchanged when enabled.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "sim/lifetime.hpp"
#include "trace/file_source.hpp"
#include "trace/prefetch_source.hpp"
#include "trace/sampled_source.hpp"
#include "trace/trace_file.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {
namespace {

std::vector<WritebackEvent> drain_n(TraceSource& source, std::size_t total,
                                    std::size_t batch_size) {
  std::vector<WritebackEvent> got;
  std::vector<WritebackEvent> batch(batch_size);
  while (got.size() < total) {
    const std::size_t want = std::min(batch.size(), total - got.size());
    const std::size_t n = source.next_batch(std::span(batch.data(), want));
    if (n == 0) break;
    got.insert(got.end(), batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return got;
}

void expect_same(const std::vector<WritebackEvent>& a,
                 const std::vector<WritebackEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line) << "event " << i;
    EXPECT_EQ(a[i].data, b[i].data) << "event " << i;
  }
}

TEST(PrefetchTraceSource, ByteIdenticalToInnerAcrossBatchSizesAndThreads) {
  const AppProfile& app = profile_by_name("gcc");
  constexpr std::size_t kEvents = 20000;
  SampledTraceSource reference(app, 1 << 12, 7);
  const auto expected = drain_n(reference, kEvents, 256);

  const std::size_t saved = parallel_threads();
  for (const std::size_t threads : {1u, 2u, 7u}) {
    set_parallel_threads(threads);
    // Batch sizes around, below, and above the decorator's buffer size, plus
    // a prime that never aligns with either buffer or tile boundaries.
    for (const std::size_t batch : {1u, 97u, 256u, 4096u, 5000u}) {
      SampledTraceSource inner(app, 1 << 12, 7);
      PrefetchTraceSource prefetched(inner);
      expect_same(expected, drain_n(prefetched, kEvents, batch));
      EXPECT_EQ(prefetched.events(), kEvents);
    }
  }
  set_parallel_threads(saved);
}

TEST(PrefetchTraceSource, SmallBufferStillDeliversIdenticalStream) {
  // A tiny buffer maximizes producer/consumer handoffs (every few events), so
  // ordering bugs in the swap protocol cannot hide behind large buffers.
  const AppProfile& app = profile_by_name("milc");
  SampledTraceSource reference(app, 1 << 10, 3);
  const auto expected = drain_n(reference, 5000, 256);
  SampledTraceSource inner(app, 1 << 10, 3);
  PrefetchTraceSource prefetched(inner, 16);
  expect_same(expected, drain_n(prefetched, 5000, 61));
}

TEST(PrefetchTraceSource, FiniteSourceEndsCleanly) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pcmsim_prefetch_finite.trace").string();
  {
    SampledTraceSource gen(profile_by_name("lbm"), 1 << 10, 11);
    std::vector<WritebackEvent> batch(700);  // not a multiple of the buffer size
    (void)gen.next_batch(batch);
    TraceFileWriter writer(path, 64);
    for (const auto& ev : batch) writer.append(ev);
    writer.close();
  }
  FileTraceSource reference(path);
  const auto expected = drain_n(reference, 10000, 256);
  ASSERT_EQ(expected.size(), 700u);

  FileTraceSource inner(path);
  PrefetchTraceSource prefetched(inner, 256);
  const auto got = drain_n(prefetched, 10000, 131);
  expect_same(expected, got);
  // Exhausted: every further call returns 0 instead of blocking.
  std::vector<WritebackEvent> more(8);
  EXPECT_EQ(prefetched.next_batch(more), 0u);
  EXPECT_EQ(prefetched.next_batch(more), 0u);
  std::remove(path.c_str());
}

TEST(PrefetchTraceSource, EmptySourceReturnsZeroImmediately) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pcmsim_prefetch_empty.trace").string();
  {
    TraceFileWriter writer(path, 64);
    writer.close();
  }
  FileTraceSource inner(path);
  PrefetchTraceSource prefetched(inner);
  std::vector<WritebackEvent> batch(16);
  EXPECT_EQ(prefetched.next_batch(batch), 0u);
  std::remove(path.c_str());
}

TEST(PrefetchTraceSource, CleanShutdownMidStream) {
  // Destroying the decorator while the worker is mid-fill (and while ready
  // buffers are unconsumed) must join cleanly — no leak, hang, or touch of
  // the inner source after destruction. TSan (ctest -L trace) verifies the
  // handoff ordering.
  const AppProfile& app = profile_by_name("gcc");
  for (int i = 0; i < 20; ++i) {
    SampledTraceSource inner(app, 1 << 10, static_cast<std::uint64_t>(i));
    PrefetchTraceSource prefetched(inner, 64);
    std::vector<WritebackEvent> batch(static_cast<std::size_t>(1 + 17 * i));
    (void)prefetched.next_batch(batch);
    // destructor runs here, mid-stream
  }
}

TEST(PrefetchTraceSource, ResetReplaysIdenticalStream) {
  SampledTraceSource inner(profile_by_name("milc"), 1 << 10, 21);
  PrefetchTraceSource prefetched(inner);
  const auto first = drain_n(prefetched, 3000, 100);
  prefetched.reset();
  EXPECT_EQ(prefetched.events(), 0u);
  const auto second = drain_n(prefetched, 3000, 77);
  expect_same(first, second);
}

TEST(PrefetchTraceSource, LifetimeResultUnchangedByPrefetch) {
  // The end-to-end guarantee the decorator exists to uphold: run_lifetime
  // with config.prefetch on and off consumes the same stream, so every
  // reported statistic is identical.
  const AppProfile& app = profile_by_name("milc");
  LifetimeConfig lc;
  lc.system.device.lines = 256;
  lc.system.device.endurance_mean = 150;
  lc.max_writes = 300000;
  LifetimeConfig pf = lc;
  pf.prefetch = true;

  const LifetimeResult plain = run_lifetime(app, lc, 42);
  const LifetimeResult prefetched = run_lifetime(app, pf, 42);
  EXPECT_EQ(plain.writes_to_failure, prefetched.writes_to_failure);
  EXPECT_EQ(plain.reached_failure, prefetched.reached_failure);
  EXPECT_EQ(plain.programmed_bits, prefetched.programmed_bits);
  EXPECT_EQ(plain.uncorrectable_events, prefetched.uncorrectable_events);
  EXPECT_EQ(plain.recycled_lines, prefetched.recycled_lines);
  EXPECT_DOUBLE_EQ(plain.mean_flips_per_write, prefetched.mean_flips_per_write);
  EXPECT_DOUBLE_EQ(plain.mean_compressed_size, prefetched.mean_compressed_size);
}

TEST(PrefetchTraceSource, ComposesInsideOuterParallelMapRegion) {
  // lifetime_study fans its four system modes out with parallel_map; each
  // task wraps a file source in a prefetch decorator, so the prefetch workers
  // run while the outer region holds the pool. Every task must still drain
  // the identical stream.
  const auto path =
      (std::filesystem::temp_directory_path() / "pcmsim_prefetch_nested.trace").string();
  {
    SampledTraceSource gen(profile_by_name("gcc"), 1 << 12, 17);
    std::vector<WritebackEvent> batch(2000);
    (void)gen.next_batch(batch);
    TraceFileWriter writer(path, 128);
    for (const auto& ev : batch) writer.append(ev);
    writer.close();
  }
  FileTraceSource reference(path);
  const auto expected = drain_n(reference, 5000, 256);

  const std::size_t saved = parallel_threads();
  for (const std::size_t threads : {2u, 7u}) {
    set_parallel_threads(threads);
    const std::vector<std::size_t> lanes = {0, 1, 2, 3};
    const auto streams = parallel_map(lanes, [&](std::size_t lane) {
      FileTraceSource inner(path);
      PrefetchTraceSource prefetched(inner, 192);
      return drain_n(prefetched, 5000, 83 + lane);
    });
    for (const auto& got : streams) expect_same(expected, got);
  }
  set_parallel_threads(saved);
  std::remove(path.c_str());
}

TEST(PrefetchTraceSource, InnerErrorRethrownFromNextBatch) {
  // A ContractViolation thrown by the inner source on the worker thread must
  // surface from the consumer's next_batch — not std::terminate the process —
  // with no partial batch from the failing fill, and stay sticky afterwards.
  const auto path =
      (std::filesystem::temp_directory_path() / "pcmsim_prefetch_corrupt.trace").string();
  {
    SampledTraceSource gen(profile_by_name("gcc"), 1 << 12, 19);
    std::vector<WritebackEvent> batch(640);
    (void)gen.next_batch(batch);
    TraceFileWriter writer(path, 64);
    for (const auto& ev : batch) writer.append(ev);
    writer.close();
  }
  {  // flip a payload byte in the first chunk: the very first fill hits it
    TraceFileReader clean(path);
    const auto dir = clean.directory();
    ASSERT_FALSE(dir.empty());
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const auto pos =
        static_cast<std::streamoff>(dir[0].offset + 12 + dir[0].payload_bytes / 2);
    f.seekg(pos);
    const int byte = f.get();
    f.seekp(pos);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  FileTraceSource inner(path);
  PrefetchTraceSource prefetched(inner, 256);
  std::vector<WritebackEvent> batch(128);
  EXPECT_THROW(
      {
        while (prefetched.next_batch(std::span(batch.data(), batch.size())) != 0) {
        }
      },
      ContractViolation);
  // Sticky: the stream stays errored instead of hanging or ending quietly.
  EXPECT_THROW((void)prefetched.next_batch(std::span(batch.data(), batch.size())),
               ContractViolation);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcmsim
