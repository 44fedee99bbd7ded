#include "trace/file_source.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace pcmsim {

FileTraceSource::FileTraceSource(const std::string& path, TraceDecode /*decode*/)
    : reader_(path) {}

std::size_t FileTraceSource::next_batch(std::span<WritebackEvent> out) {
  std::size_t n = 0;
  while (n < out.size() && reader_.next(out[n])) ++n;
  events_ += n;
  return n;
}

void FileTraceSource::reset() {
  reader_.reset();
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
