#include "trace/file_source.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace pcmsim {

FileTraceSource::FileTraceSource(const std::string& path, TraceDecode decode) {
  if (decode == TraceDecode::kParallel) {
    index_ = std::make_shared<const TraceFileIndex>(path);
    total_records_ = index_->total_records();
  } else {
    serial_.emplace(path);
    total_records_ = serial_->total_records();
  }
}

void FileTraceSource::decode_next_window() {
  // Fan the next window of chunk indices over the pool. The window is sized
  // to keep every worker busy while staying a small multiple of one chunk's
  // memory; slot i always uses decoder i, so a slot's decoder state is only
  // ever touched by the one task that owns the slot in this region.
  const std::size_t chunks = index_->chunk_count();
  const std::size_t width = std::max<std::size_t>(std::size_t{1}, parallel_threads());
  const std::size_t want = std::min(chunks - next_chunk_, 2 * width);
  if (window_.size() < want) window_.resize(want);
  while (decoders_.size() < want) {
    decoders_.push_back(std::make_unique<TraceChunkDecoder>(index_));
  }
  const std::size_t base = next_chunk_;
  parallel_for(want, [&](std::size_t i) { decoders_[i]->decode(base + i, window_[i]); });
  // Only reached when every chunk decoded cleanly — a CRC/layout violation is
  // rethrown by parallel_for above and no window state advances.
  next_chunk_ += want;
  window_chunks_ = want;
  window_chunk_pos_ = 0;
  window_event_pos_ = 0;
}

std::size_t FileTraceSource::next_batch(std::span<WritebackEvent> out) {
  std::size_t n = 0;
  if (index_) {  // parallel window decode with in-order reassembly
    while (n < out.size()) {
      if (window_chunk_pos_ >= window_chunks_) {
        if (next_chunk_ >= index_->chunk_count()) break;
        decode_next_window();
      }
      const std::vector<WritebackEvent>& chunk = window_[window_chunk_pos_];
      const std::size_t take =
          std::min(out.size() - n, chunk.size() - window_event_pos_);
      std::copy_n(chunk.begin() + static_cast<std::ptrdiff_t>(window_event_pos_), take,
                  out.begin() + static_cast<std::ptrdiff_t>(n));
      window_event_pos_ += take;
      n += take;
      if (window_event_pos_ >= chunk.size()) {
        ++window_chunk_pos_;
        window_event_pos_ = 0;
      }
    }
  } else {
    while (n < out.size() && serial_->next(out[n])) ++n;
  }
  events_ += n;
  return n;
}

void FileTraceSource::reset() {
  if (index_) {
    next_chunk_ = 0;
    window_chunks_ = 0;
    window_chunk_pos_ = 0;
    window_event_pos_ = 0;
  } else {
    serial_->reset();
  }
  events_ = 0;
}

LoopedFileTraceSource::LoopedFileTraceSource(const std::string& path, TraceDecode decode)
    : file_(path, decode) {
  expects(file_.total_records() > 0, "cannot loop an empty trace file");
}

void LoopedFileTraceSource::reversion(WritebackEvent& ev) const {
  // Deterministic per-(line, pass) mutation: flip the low byte of 1-4 nonzero
  // 32-bit words. Skipping zero words keeps the block's zero structure (and
  // compressibility class) intact; all-zero blocks pass through unchanged.
  const std::uint64_t h = mix64(ev.line ^ (pass_ * 0x9E3779B97F4A7C15ull));
  const unsigned k = 1 + static_cast<unsigned>(h & 3);
  for (unsigned i = 0; i < k; ++i) {
    const std::size_t w = static_cast<std::size_t>((h >> (8 + i * 6)) & 15u);
    std::uint32_t word = 0;
    std::memcpy(&word, ev.data.data() + w * 4, 4);
    if (word == 0) continue;
    const auto flip = static_cast<std::uint8_t>(1u + ((h >> (40 + i * 5)) & 0x7Fu));
    word ^= flip;
    // XOR with a nonzero byte can only zero the word if the word equalled
    // `flip`; re-flip a higher bit instead so nonzero words stay nonzero.
    if (word == 0) word = static_cast<std::uint32_t>(flip) << 8;
    std::memcpy(ev.data.data() + w * 4, &word, 4);
  }
}

std::size_t LoopedFileTraceSource::next_batch(std::span<WritebackEvent> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t n = file_.next_batch(out.subspan(done));
    if (n == 0) {
      file_.reset();
      ++pass_;
      continue;
    }
    if (pass_ > 0) {
      for (std::size_t i = done; i < done + n; ++i) reversion(out[i]);
    }
    done += n;
  }
  events_ += out.size();
  return out.size();
}

void LoopedFileTraceSource::reset() {
  file_.reset();
  pass_ = 0;
  events_ = 0;
}

}  // namespace pcmsim
