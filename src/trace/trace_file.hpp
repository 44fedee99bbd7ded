// Chunked, seekable, integrity-checked trace file format (v2).
//
// Layout (all integers little-endian):
//
//   FileHeader   { u64 magic "PCMTRC2\0"; u32 version = 2; u32 chunk_records }
//   Chunk*       { u32 records; u32 payload_bytes; u32 payload_crc32;
//                  u8 payload[payload_bytes] }
//   Directory    { u64 chunk_offset; u32 records; u32 payload_bytes } * chunks
//   Footer       { u64 dir_offset; u32 chunk_count; u32 dir_crc32;
//                  u64 total_records; u64 footer_magic "PCMTRC2E" }
//
// Chunk payload, per record:
//   varint(zigzag(line - prev_line_in_chunk))   -- delta restarts at 0 per
//                                                  chunk, so chunks decode
//                                                  independently
//   u8 tag: 0xFF -> 64 raw value bytes follow (incompressible fallback);
//           else tag = pack_encoding(scheme, layout) (< 32), followed by
//           u8 image_size (1..63) and the BestOf compressed image.
//
// Values run through the repo's own BestOfCompressor plan/materialize
// pipeline, so compressible workloads store 3-20x smaller than the raw
// 72 B/record (8-byte address + 64-byte value). Every chunk carries its own
// CRC32 and record count; the trailing directory (itself CRC'd, located via
// the fixed-size footer) makes chunks independently addressable.
//
// TraceFileReader validates the whole container at open (header, footer,
// directory CRC, chunk offsets and record counts), then decodes one chunk at
// a time, either streaming in order (next) or by index (read_chunk).
// Truncation or corruption anywhere is a hard ContractViolation at open or
// decode time, never a silent short read.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "compression/best_of.hpp"
#include "trace/event.hpp"

namespace pcmsim {

inline constexpr std::uint64_t kTraceV2Magic = 0x00324352544d4350ull;        // "PCMTRC2\0"
inline constexpr std::uint64_t kTraceV2FooterMagic = 0x45324352544d4350ull;  // "PCMTRC2E"
inline constexpr std::uint32_t kTraceV2Version = 2;
inline constexpr std::uint32_t kTraceV2DefaultChunkRecords = 4096;

/// One directory entry: where a chunk lives and what it holds.
struct TraceChunkInfo {
  std::uint64_t offset = 0;  ///< file offset of the chunk's 12-byte header
  std::uint32_t records = 0;
  std::uint32_t payload_bytes = 0;
};

/// CRC-32 (IEEE 802.3 polynomial) over a byte range; guards chunk payloads
/// and the directory.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Streaming v2 writer: buffers one chunk in memory, flushes it (with CRC and
/// counts) every `chunk_records` events, and finalizes the directory+footer
/// in close(). Stream failures (disk full, I/O errors) fail loudly.
class TraceFileWriter {
 public:
  explicit TraceFileWriter(const std::string& path,
                           std::uint32_t chunk_records = kTraceV2DefaultChunkRecords);
  ~TraceFileWriter();
  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void append(const WritebackEvent& ev);
  void close();  ///< flushes the last chunk, writes directory + footer

  [[nodiscard]] std::uint64_t records() const { return total_records_; }

 private:
  void flush_chunk();

  std::ofstream out_;
  BestOfCompressor best_;
  std::vector<std::uint8_t> payload_;
  std::vector<TraceChunkInfo> directory_;
  std::uint64_t prev_line_ = 0;  ///< delta base, restarts at 0 each chunk
  std::uint64_t offset_ = 0;     ///< current file offset
  std::uint64_t total_records_ = 0;
  std::uint32_t chunk_records_;
  std::uint32_t in_chunk_ = 0;
  bool closed_ = false;
};

/// Buffered v2 reader. Validates the container at open (magic, version,
/// footer, directory CRC, offset/record-count consistency); validates each
/// chunk's CRC and record count as it decodes. Any mismatch (truncation, bit
/// rot) is a ContractViolation, not a silent EOF, and streaming stays on the
/// failing chunk, so a retry throws again instead of skipping it.
class TraceFileReader {
 public:
  explicit TraceFileReader(const std::string& path);
  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  [[nodiscard]] std::uint64_t total_records() const { return total_records_; }
  [[nodiscard]] std::size_t chunk_count() const { return directory_.size(); }
  [[nodiscard]] const std::vector<TraceChunkInfo>& directory() const { return directory_; }

  /// Streaming access: fills `ev` and returns true, or returns false at the
  /// clean end of the trace. Decodes chunk-at-a-time internally.
  [[nodiscard]] bool next(WritebackEvent& ev);

  /// Random access: decodes chunk `index` in isolation.
  [[nodiscard]] std::vector<WritebackEvent> read_chunk(std::size_t index);

  void reset();  ///< rewinds streaming access to the first record

 private:
  /// Decodes chunk `chunk_index` into `out` (cleared first). CRC or layout
  /// mismatch anywhere is a ContractViolation.
  void decode(std::size_t chunk_index, std::vector<WritebackEvent>& out);

  std::ifstream in_;
  BestOfCompressor best_;
  std::vector<TraceChunkInfo> directory_;
  std::uint64_t total_records_ = 0;
  std::vector<std::uint8_t> raw_;        ///< chunk payload scratch
  std::vector<WritebackEvent> buffer_;   ///< decoded chunk for streaming
  std::vector<WritebackEvent> decoded_;  ///< decode target, swapped in on success
  std::size_t next_chunk_ = 0;           ///< next chunk to stream-decode
  std::size_t buffer_pos_ = 0;
};

}  // namespace pcmsim
