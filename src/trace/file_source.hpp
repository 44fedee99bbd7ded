// Replay of on-disk trace captures through the TraceSource interface.
//
// FileTraceSource replays the event stream a chunked v2 capture
// (trace_file.hpp) recorded. Opening validates the container, so a file that
// is not v2 (wrong magic, truncated, corrupt directory) is a ContractViolation
// at construction.
//
// v2 chunks are independently decodable, so the source offers two decode
// modes:
//   * TraceDecode::kSerial   — one TraceChunkDecoder streams chunks in order.
//   * TraceDecode::kParallel — a window of upcoming chunks is fanned out over
//     the deterministic parallel engine (common/parallel.hpp), one
//     slot-pinned TraceChunkDecoder per window slot (own ifstream, varint
//     cursor, CRC check, BestOf scratch — zero shared mutable state), then
//     reassembled in directory order. The delivered event stream is
//     byte-identical to serial decode at any thread count; only the wall
//     clock changes. A corrupt chunk anywhere in the window surfaces as a
//     ContractViolation from next_batch (rethrown by parallel_for), exactly
//     as the serial path would.
//
// LoopedFileTraceSource makes a finite capture drive an unbounded lifetime
// run. Replaying a recorded trace verbatim a second time is degenerate under
// differential writes — every rewrite stores the identical value and flips
// zero cells — so each pass >= 1 re-versions the values: a deterministic
// per-(line, pass) mutation flips the low byte of a few nonzero data words.
// Zero words are never touched, which preserves each block's zero structure
// (and hence its compressibility class); all-zero blocks therefore replay
// unchanged by design. The mutation depends only on (line, pass), so looped
// replay over a parallel-decoding file source stays byte-identical to the
// serial order too.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace_file.hpp"
#include "trace/trace_source.hpp"

namespace pcmsim {

/// How FileTraceSource turns v2 chunks back into events (see file header).
enum class TraceDecode { kSerial, kParallel };

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
  [[nodiscard]] std::uint64_t total_records() const { return total_records_; }

 private:
  void decode_next_window();

  std::optional<TraceFileReader> serial_;  // kSerial: streaming reader
  // kParallel: shared index + slot-pinned decoders + in-order window.
  std::shared_ptr<const TraceFileIndex> index_;
  std::vector<std::unique_ptr<TraceChunkDecoder>> decoders_;
  std::vector<std::vector<WritebackEvent>> window_;  ///< decoded chunks, in order
  std::size_t window_chunks_ = 0;     ///< valid entries in window_
  std::size_t window_chunk_pos_ = 0;  ///< chunk being consumed
  std::size_t window_event_pos_ = 0;  ///< next event within that chunk
  std::size_t next_chunk_ = 0;        ///< next chunk index to decode
  std::uint64_t total_records_ = 0;
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
