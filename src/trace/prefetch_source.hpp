// PrefetchTraceSource: a double-buffered decorator that overlaps trace
// generation (or file decode) with the consumer's write execution.
//
// A background worker thread fills buffer N+1 by draining the inner source
// while the consumer copies events out of buffer N; the consumer only blocks
// when it outruns the producer. The hard invariant — enforced by
// tests/trace_prefetch_test.cpp at threads in {1, 2, 7} — is that the
// delivered event stream is byte-identical to calling the undecorated source
// with any batching: the worker fills each buffer by calling
// inner.next_batch() repeatedly in order, and buffers are handed to the
// consumer strictly in fill order, so batch boundaries are the only thing
// that changes. Every source in this repo produces a stream independent of
// how it is batched (SampledTraceSource splits its RNG streams for exactly
// this reason; file replay is per-event deterministic), which is the
// property the decorator relies on.
//
// Profiling: the inner source's generation cost still lands in kTraceGen,
// but it now accrues on the worker thread, overlapped with write execution.
// The consumer-visible cost of trace ingestion becomes kTraceWait — the time
// next_batch spends blocked on (plus copying from) a buffer. On a lifetime
// run where writes are slower than generation, kTraceWait collapses to the
// memcpy cost and trace ingestion disappears from the critical path.
//
// Errors: an exception thrown by the inner source on the worker thread (a
// ContractViolation from a corrupt trace file, say) is captured, the stream
// is end-marked, and the exception is rethrown from the consumer's next
// next_batch() call — the same contract as calling the inner source
// directly. The failing fill is discarded, so the consumer never sees a
// partial batch from it, and the rethrow is sticky: every later call throws
// again until reset().
//
// Lifecycle: the destructor and reset() stop the worker cleanly mid-stream
// (shutdown latency is bounded by one buffer fill). The decorator borrows
// the inner source; it must outlive the decorator's last use.
#pragma once

#include <array>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/trace_source.hpp"

namespace pcmsim {

class PrefetchTraceSource final : public TraceSource {
 public:
  /// `buffer_events` is the size of each of the two swap buffers; the default
  /// holds a few milliseconds of sampled generation — large enough to
  /// amortize handoffs, small enough to stay cache- and memory-friendly.
  explicit PrefetchTraceSource(TraceSource& inner, std::size_t buffer_events = 4096);
  ~PrefetchTraceSource() override;
  PrefetchTraceSource(const PrefetchTraceSource&) = delete;
  PrefetchTraceSource& operator=(const PrefetchTraceSource&) = delete;

  std::size_t next_batch(std::span<WritebackEvent> out) override;
  [[nodiscard]] std::uint64_t events() const override { return events_; }

  /// Stops the worker, resets the inner source, and restarts; the stream
  /// after reset() is identical to a fresh decorator over a fresh source.
  void reset() override;

 private:
  enum class Slot : std::uint8_t { kFree, kReady };

  struct Buffer {
    std::vector<WritebackEvent> events;
    std::size_t size = 0;  ///< filled prefix of events
    bool end = false;      ///< inner source ran dry while filling
    Slot state = Slot::kFree;
  };

  void start();
  void stop();
  void worker_main();

  TraceSource& inner_;
  const std::size_t capacity_;
  std::array<Buffer, 2> buffers_;

  std::mutex m_;
  std::condition_variable ready_cv_;  ///< worker -> consumer: buffer filled
  std::condition_variable free_cv_;   ///< consumer -> worker: buffer drained
  std::thread worker_;
  std::size_t fill_idx_ = 0;  ///< worker's next buffer (alternates)
  std::size_t read_idx_ = 0;  ///< consumer's current buffer (alternates)
  std::size_t read_pos_ = 0;  ///< consumed prefix of the current buffer
  bool stop_ = false;
  bool drained_ = false;        ///< consumer reached the end-marked buffer
  std::exception_ptr error_;    ///< worker-side failure, rethrown to the consumer
  std::uint64_t events_ = 0;
};

}  // namespace pcmsim
