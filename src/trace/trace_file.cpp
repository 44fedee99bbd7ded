#include "trace/trace_file.hpp"

#include <array>
#include <cstring>

#include "common/assert.hpp"

namespace pcmsim {

namespace {

constexpr std::uint64_t kChunkHeaderBytes = 12;  // records + payload_bytes + crc
constexpr std::uint64_t kHeaderBytes = 16;       // magic + version + chunk_records
constexpr std::uint64_t kFooterBytes = 32;
constexpr std::uint64_t kDirEntryBytes = 16;  // offset + records + payload_bytes
constexpr std::uint8_t kRawValueTag = 0xFF;   // pack_encoding values are < 32

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Decodes a varint from raw[pos...]; advances pos. Running off the end of the
/// payload means the chunk lied about its contents.
[[nodiscard]] std::uint64_t get_varint(std::span<const std::uint8_t> raw, std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    expects(pos < raw.size(), "trace chunk payload truncated inside a varint");
    expects(shift < 64, "trace chunk varint overlong");
    const std::uint8_t b = raw[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return v;
    shift += 7;
  }
}

template <typename T>
void put_le(std::ofstream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
[[nodiscard]] T get_le(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = kCrcTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TraceFileWriter::TraceFileWriter(const std::string& path, std::uint32_t chunk_records)
    : out_(path, std::ios::binary), chunk_records_(chunk_records) {
  expects(out_.good(), "cannot open trace file for writing");
  expects(chunk_records_ > 0, "chunk must hold at least one record");
  put_le(out_, kTraceV2Magic);
  put_le(out_, kTraceV2Version);
  put_le(out_, chunk_records_);
  expects(out_.good(), "trace file write failed (disk full or I/O error)");
  offset_ = kHeaderBytes;
  payload_.reserve(static_cast<std::size_t>(chunk_records_) * (kBlockBytes + 4));
}

TraceFileWriter::~TraceFileWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() explicitly to observe failures.
  }
}

void TraceFileWriter::append(const WritebackEvent& ev) {
  expects(!closed_, "trace writer already closed");
  put_varint(payload_, zigzag(static_cast<std::int64_t>(ev.line) -
                              static_cast<std::int64_t>(prev_line_)));
  prev_line_ = ev.line;
  if (const auto plan = best_.plan(ev.data)) {
    const CompressedBlock cb = best_.materialize(ev.data, *plan);
    payload_.push_back(pack_encoding(cb.scheme, cb.encoding));
    payload_.push_back(static_cast<std::uint8_t>(cb.size_bytes()));
    payload_.insert(payload_.end(), cb.bytes.data(), cb.bytes.data() + cb.bytes.size());
  } else {
    payload_.push_back(kRawValueTag);
    payload_.insert(payload_.end(), ev.data.data(), ev.data.data() + ev.data.size());
  }
  ++total_records_;
  if (++in_chunk_ == chunk_records_) flush_chunk();
}

void TraceFileWriter::flush_chunk() {
  if (in_chunk_ == 0) return;
  const std::uint32_t payload_bytes = static_cast<std::uint32_t>(payload_.size());
  put_le(out_, in_chunk_);
  put_le(out_, payload_bytes);
  put_le(out_, crc32(payload_));
  out_.write(reinterpret_cast<const char*>(payload_.data()),
             static_cast<std::streamsize>(payload_.size()));
  expects(out_.good(), "trace file write failed (disk full or I/O error)");
  directory_.push_back({offset_, in_chunk_, payload_bytes});
  offset_ += kChunkHeaderBytes + payload_bytes;
  payload_.clear();
  prev_line_ = 0;
  in_chunk_ = 0;
}

void TraceFileWriter::close() {
  if (closed_) return;
  flush_chunk();
  closed_ = true;
  // Serialize the directory through the same byte layout the reader CRCs.
  std::vector<std::uint8_t> dir_bytes;
  dir_bytes.reserve(directory_.size() * kDirEntryBytes);
  for (const TraceChunkInfo& c : directory_) {
    const auto push = [&dir_bytes](const void* p, std::size_t n) {
      const auto* b = static_cast<const std::uint8_t*>(p);
      dir_bytes.insert(dir_bytes.end(), b, b + n);
    };
    push(&c.offset, 8);
    push(&c.records, 4);
    push(&c.payload_bytes, 4);
  }
  const std::uint64_t dir_offset = offset_;
  out_.write(reinterpret_cast<const char*>(dir_bytes.data()),
             static_cast<std::streamsize>(dir_bytes.size()));
  put_le(out_, dir_offset);
  put_le(out_, static_cast<std::uint32_t>(directory_.size()));
  put_le(out_, crc32(dir_bytes));
  put_le(out_, total_records_);
  put_le(out_, kTraceV2FooterMagic);
  out_.close();
  ensures(out_.good(), "trace file close failed (disk full or I/O error)");
}

TraceFileReader::TraceFileReader(const std::string& path) : in_(path, std::ios::binary) {
  expects(in_.good(), "cannot open trace file for reading");
  in_.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in_.tellg());
  expects(file_bytes >= kHeaderBytes + kFooterBytes, "trace file truncated (no v2 header/footer)");

  in_.seekg(0);
  expects(get_le<std::uint64_t>(in_) == kTraceV2Magic, "not a pcmsim v2 trace file");
  expects(get_le<std::uint32_t>(in_) == kTraceV2Version, "unsupported trace format version");
  const auto chunk_records = get_le<std::uint32_t>(in_);
  expects(chunk_records > 0, "corrupt v2 header: zero chunk size");

  in_.seekg(static_cast<std::streamoff>(file_bytes - kFooterBytes));
  const auto dir_offset = get_le<std::uint64_t>(in_);
  const auto chunk_count = get_le<std::uint32_t>(in_);
  const auto dir_crc = get_le<std::uint32_t>(in_);
  total_records_ = get_le<std::uint64_t>(in_);
  const auto footer_magic = get_le<std::uint64_t>(in_);
  expects(in_.good(), "trace file truncated (short v2 footer)");
  expects(footer_magic == kTraceV2FooterMagic,
          "v2 trace footer missing (file truncated or not finalized)");
  expects(dir_offset >= kHeaderBytes &&
              dir_offset + chunk_count * kDirEntryBytes + kFooterBytes == file_bytes,
          "v2 trace directory does not match file length (truncated or corrupt)");

  std::vector<std::uint8_t> dir_bytes(chunk_count * kDirEntryBytes);
  in_.seekg(static_cast<std::streamoff>(dir_offset));
  in_.read(reinterpret_cast<char*>(dir_bytes.data()),
          static_cast<std::streamsize>(dir_bytes.size()));
  expects(in_.good(), "trace file truncated (short v2 directory)");
  expects(crc32(dir_bytes) == dir_crc, "v2 trace directory CRC mismatch (corrupt file)");

  directory_.resize(chunk_count);
  std::uint64_t expect_offset = kHeaderBytes;
  std::uint64_t dir_records = 0;
  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    TraceChunkInfo& c = directory_[i];
    std::memcpy(&c.offset, dir_bytes.data() + i * kDirEntryBytes, 8);
    std::memcpy(&c.records, dir_bytes.data() + i * kDirEntryBytes + 8, 4);
    std::memcpy(&c.payload_bytes, dir_bytes.data() + i * kDirEntryBytes + 12, 4);
    expects(c.offset == expect_offset, "v2 trace chunk offsets are inconsistent");
    expects(c.records > 0 && c.records <= chunk_records, "v2 trace chunk record count corrupt");
    expect_offset += kChunkHeaderBytes + c.payload_bytes;
    dir_records += c.records;
  }
  expects(expect_offset == dir_offset, "v2 trace chunks do not fill the file (truncated)");
  expects(dir_records == total_records_, "v2 trace record total does not match directory");
}

void TraceFileReader::decode(std::size_t chunk_index, std::vector<WritebackEvent>& out) {
  expects(chunk_index < directory_.size(), "trace chunk index out of range");
  const TraceChunkInfo& info = directory_[chunk_index];
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(info.offset));
  const auto records = get_le<std::uint32_t>(in_);
  const auto payload_bytes = get_le<std::uint32_t>(in_);
  const auto crc = get_le<std::uint32_t>(in_);
  expects(in_.good(), "trace file truncated (short chunk header)");
  expects(records == info.records && payload_bytes == info.payload_bytes,
          "trace chunk header disagrees with directory (corrupt file)");
  raw_.resize(payload_bytes);
  in_.read(reinterpret_cast<char*>(raw_.data()), static_cast<std::streamsize>(raw_.size()));
  expects(in_.good(), "trace file truncated (short chunk payload)");
  expects(crc32(raw_) == crc, "trace chunk CRC mismatch (corrupt file)");

  out.clear();
  out.reserve(records);
  std::size_t pos = 0;
  std::uint64_t prev_line = 0;
  for (std::uint32_t r = 0; r < records; ++r) {
    WritebackEvent ev;
    const std::int64_t delta = unzigzag(get_varint(raw_, pos));
    ev.line = static_cast<LineAddr>(static_cast<std::int64_t>(prev_line) + delta);
    prev_line = ev.line;
    expects(pos < raw_.size(), "trace chunk payload truncated before value tag");
    const std::uint8_t tag = raw_[pos++];
    if (tag == kRawValueTag) {
      expects(pos + kBlockBytes <= raw_.size(), "trace chunk payload truncated inside raw value");
      std::memcpy(ev.data.data(), raw_.data() + pos, kBlockBytes);
      pos += kBlockBytes;
    } else {
      expects(pos < raw_.size(), "trace chunk payload truncated before image size");
      const std::uint8_t size = raw_[pos++];
      expects(size > 0 && size < kBlockBytes, "trace chunk value image size corrupt");
      expects(pos + size <= raw_.size(), "trace chunk payload truncated inside value image");
      CompressedBlock cb;
      cb.bytes.assign(std::span<const std::uint8_t>(raw_.data() + pos, size));
      cb.scheme = unpack_scheme(tag);
      cb.encoding = unpack_layout(tag);
      expects(cb.scheme != CompressionScheme::kNone, "trace chunk value tag corrupt");
      ev.data = best_.decompress(cb);
      pos += size;
    }
    out.push_back(ev);
  }
  expects(pos == raw_.size(), "trace chunk payload has trailing bytes (corrupt file)");
}

bool TraceFileReader::next(WritebackEvent& ev) {
  while (buffer_pos_ >= buffer_.size()) {
    if (next_chunk_ >= directory_.size()) return false;
    // The cursor moves only once the chunk decoded in full, so a corrupt
    // chunk fails again on retry instead of being skipped.
    decode(next_chunk_, decoded_);
    buffer_.swap(decoded_);
    buffer_pos_ = 0;
    ++next_chunk_;
  }
  ev = buffer_[buffer_pos_++];
  return true;
}

std::vector<WritebackEvent> TraceFileReader::read_chunk(std::size_t index) {
  std::vector<WritebackEvent> out;
  decode(index, out);
  return out;
}

void TraceFileReader::reset() {
  next_chunk_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
}

}  // namespace pcmsim
