// Unified write-back stream abstraction for the trace subsystem.
//
// The paper's methodology is trace-driven: "we collect traces of main memory
// accesses in Gem5, which are then fed to a lightweight memory simulator".
// TraceSource is the simulator-facing seam for every way such a stream can be
// produced:
//   * SampledTraceSource (sampled_source.hpp) — the batched flat-state
//     synthetic sampler, calibrated against Table III and Fig 6. The source
//     for every figure/table bench and lifetime run.
//   * FileTraceSource / LoopedFileTraceSource (file_source.hpp) — replay of
//     on-disk v2 captures (trace_file.hpp).
//
// Sources produce events in batches (next_batch) so per-event virtual-call
// and profiler overhead amortizes across a span. Every source's stream is
// independent of how it is batched, so callers may pick any batch size.
#pragma once

#include <span>
#include <vector>

#include "common/assert.hpp"
#include "trace/event.hpp"

namespace pcmsim {

/// Polymorphic write-back stream. Batch-oriented: callers hand in a span and
/// get back how many leading entries were filled.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Fills up to out.size() events; returns the count filled. A return of 0
  /// means the source is exhausted (finite traces only — synthetic samplers
  /// and looped replays always fill the whole span).
  virtual std::size_t next_batch(std::span<WritebackEvent> out) = 0;

  /// Total events produced since construction (or the last reset()).
  [[nodiscard]] virtual std::uint64_t events() const = 0;

  /// Rewinds the source to its initial state (re-seeds samplers, reopens
  /// files); the stream after reset() is identical to a fresh instance.
  virtual void reset() = 0;
};

/// Per-event cursor over any batched TraceSource, for consumers that want a
/// next()-style loop (the figure benches follow individual hot lines). Pulls
/// events in fixed tiles; the delivered stream is exactly the source's
/// stream, so a cursor loop and a next_batch loop see identical events.
class TraceCursor {
 public:
  explicit TraceCursor(TraceSource& source, std::size_t tile = 256)
      : source_(source), buf_(tile) {}

  /// Fills `ev` with the next event; false at the end of a finite source.
  [[nodiscard]] bool next(WritebackEvent& ev) {
    if (pos_ >= size_) {
      size_ = source_.next_batch(std::span(buf_.data(), buf_.size()));
      pos_ = 0;
      if (size_ == 0) return false;
    }
    ev = buf_[pos_++];
    return true;
  }

  /// Convenience for unbounded sources (samplers, looped replay), which by
  /// contract always fill the whole span.
  [[nodiscard]] WritebackEvent next() {
    WritebackEvent ev;
    expects(next(ev), "trace source exhausted mid-cursor");
    return ev;
  }

 private:
  TraceSource& source_;
  std::vector<WritebackEvent> buf_;
  std::size_t pos_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pcmsim
