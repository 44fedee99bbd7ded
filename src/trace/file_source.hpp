// Replay of on-disk trace captures through the TraceSource interface.
//
// FileTraceSource replays the event stream a chunked v2 capture
// (trace_file.hpp) recorded. Opening validates the container, so a file that
// is not v2 (wrong magic, truncated, corrupt directory) is a ContractViolation
// at construction.
//
// Chunks decode serially, in file order, through one TraceFileReader; a
// corrupt chunk is a ContractViolation from next_batch, and retrying throws
// again. Decode is serial because no workload gained from a parallel one
// (EXPERIMENTS.md, "Parallel v2 chunk decode"). Under the sharded engine,
// decode already overlaps write execution: the dispatcher fills the next
// window while the shards execute the current one.
//
// LoopedFileTraceSource makes a finite capture drive an unbounded lifetime
// run. Replaying a recorded trace verbatim a second time is degenerate under
// differential writes — every rewrite stores the identical value and flips
// zero cells — so each pass >= 1 re-versions the values: a deterministic
// per-(line, pass) mutation flips the low byte of a few nonzero data words.
// Zero words are never touched, which preserves each block's zero structure
// (and hence its compressibility class); all-zero blocks therefore replay
// unchanged by design. The mutation depends only on (line, pass).
#pragma once

#include <string>

#include "trace/trace_file.hpp"
#include "trace/trace_source.hpp"

namespace pcmsim {

/// How FileTraceSource decodes chunks. Serial is the only mode; the type and
/// the constructor argument stay because perfbench/pcmbench.cpp passes them.
enum class TraceDecode { kSerial };

/// Finite replay of a v2 trace file. next_batch() underfills at end of
/// trace and returns 0 thereafter; reset() rewinds to the first record.
class FileTraceSource final : public TraceSource {
 public:
  explicit FileTraceSource(const std::string& path,
                           TraceDecode decode = TraceDecode::kSerial);
  FileTraceSource(const FileTraceSource&) = delete;
  FileTraceSource& operator=(const FileTraceSource&) = delete;

  std::size_t next_batch(std::span<WritebackEvent> out) override;
  [[nodiscard]] std::uint64_t events() const override { return events_; }
  void reset() override;

  /// Records stored in the file (one full pass).
  [[nodiscard]] std::uint64_t total_records() const { return reader_.total_records(); }

 private:
  TraceFileReader reader_;
  std::uint64_t events_ = 0;
};

/// Unbounded replay: cycles the file, re-versioning values on every pass
/// after the first so rewrites keep flipping cells (see file header).
class LoopedFileTraceSource final : public TraceSource {
 public:
  explicit LoopedFileTraceSource(const std::string& path,
                                 TraceDecode decode = TraceDecode::kSerial);
  LoopedFileTraceSource(const LoopedFileTraceSource&) = delete;
  LoopedFileTraceSource& operator=(const LoopedFileTraceSource&) = delete;

  std::size_t next_batch(std::span<WritebackEvent> out) override;
  [[nodiscard]] std::uint64_t events() const override { return events_; }
  void reset() override;

  [[nodiscard]] std::uint64_t pass() const { return pass_; }
  [[nodiscard]] std::uint64_t records_per_pass() const { return file_.total_records(); }

 private:
  void reversion(WritebackEvent& ev) const;

  FileTraceSource file_;
  std::uint64_t pass_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace pcmsim
