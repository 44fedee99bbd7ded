#include "core/window.hpp"

#include "common/assert.hpp"

namespace pcmsim {

WindowSegments window_segments(std::uint8_t start_byte, std::uint8_t size_bytes) {
  expects(start_byte < kBlockBytes, "window start must be inside the line");
  expects(size_bytes >= 1 && size_bytes <= kBlockBytes, "window size must be 1..64 bytes");
  WindowSegments out;
  const std::size_t start_bit = static_cast<std::size_t>(start_byte) * 8;
  const std::size_t nbits = static_cast<std::size_t>(size_bytes) * 8;
  if (start_bit + nbits <= kBlockBits) {
    out.seg[0] = {start_bit, nbits};
    out.count = 1;
  } else {
    const std::size_t first = kBlockBits - start_bit;
    out.seg[0] = {start_bit, first};
    out.seg[1] = {0, nbits - first};
    out.count = 2;
  }
  return out;
}

std::vector<FaultCell> window_faults(const PcmArray& array, std::size_t line,
                                     std::uint8_t start_byte, std::uint8_t size_bytes) {
  WindowFaultBuffer buf;
  const auto faults = window_faults_into(array, line, start_byte, size_bytes, buf);
  return {faults.begin(), faults.end()};
}

void read_window_image(const PcmArray& array, std::size_t line, std::uint8_t start_byte,
                       std::uint8_t size_bytes, std::span<std::uint8_t> out) {
  expects(out.size() >= size_bytes, "window image buffer too small");
  const WindowSegments segs = window_segments(start_byte, size_bytes);
  std::size_t image_bit = 0;
  for (std::size_t s = 0; s < segs.count; ++s) {
    array.read_range(line, segs.seg[s].bit_off, segs.seg[s].nbits,
                     out.subspan(image_bit / 8));
    image_bit += segs.seg[s].nbits;
  }
}

std::span<const FaultCell> window_faults_into(const PcmArray& array, std::size_t line,
                                              std::uint8_t start_byte, std::uint8_t size_bytes,
                                              WindowFaultBuffer& buf) {
  const WindowSegments segs = window_segments(start_byte, size_bytes);
  std::array<std::uint16_t, kBlockBits> positions;
  buf.count = 0;
  std::size_t window_pos = 0;
  for (std::size_t s = 0; s < segs.count; ++s) {
    const std::size_t n =
        array.stuck_positions_into(line, segs.seg[s].bit_off, segs.seg[s].nbits, positions);
    for (std::size_t i = 0; i < n; ++i) {
      const auto rel =
          static_cast<std::uint16_t>(window_pos + (positions[i] - segs.seg[s].bit_off));
      buf.cells[buf.count++] = FaultCell{rel, array.read_bit(line, positions[i])};
    }
    window_pos += segs.seg[s].nbits;
  }
  return {buf.cells.data(), buf.count};
}

bool WindowPlacer::start_fits(const PcmArray& array, std::size_t line,
                              std::span<const std::uint16_t> prefix, std::uint8_t start,
                              std::uint8_t size_bytes,
                              std::span<const std::uint8_t> word_content) const {
  const std::size_t stuck = window_stuck_from_prefix(prefix, start, size_bytes);
  if (stuck <= guaranteed_) return true;
  if (stuck > bound_) return false;  // no pattern of this many faults survives
  WindowFaultBuffer buf;
  const auto faults = window_faults_into(array, line, start, size_bytes, buf);
  return scheme_->can_tolerate_with(faults, static_cast<std::size_t>(size_bytes) * 8,
                                    word_content);
}

bool WindowPlacer::fits(const PcmArray& array, std::size_t line, std::uint8_t start,
                        std::uint8_t size_bytes) const {
  return fits(array, line, start, size_bytes, {});
}

bool WindowPlacer::fits(const PcmArray& array, std::size_t line, std::uint8_t start,
                        std::uint8_t size_bytes,
                        std::span<const std::uint8_t> word_content) const {
  // O(1) fast path: a window can hold at most the line's total stuck cells,
  // so the common zero/low-fault line never scans a single window word. (The
  // count bounds are data-independent, so they stay valid in the slack-aware
  // case too.)
  if (array.data_stuck_count(line) <= guaranteed_) return true;
  return start_fits(array, line, array.byte_stuck_prefix(line), start, size_bytes,
                    word_content);
}

std::optional<std::uint8_t> WindowPlacer::find(const PcmArray& array, std::size_t line,
                                               std::uint8_t size_bytes, std::uint8_t preferred,
                                               SlidePolicy policy) const {
  expects(preferred < kBlockBytes, "preferred start must be inside the line");
  const bool clean = array.data_stuck_count(line) <= guaranteed_;

  // Each policy tries `preferred` first, so when the whole line is below the
  // guaranteed bound the answer is the first start its search order visits —
  // no per-start work at all.
  switch (policy) {
    case SlidePolicy::kStay: {
      if (clean) return preferred;
      if (fits(array, line, preferred, size_bytes)) return preferred;
      return std::nullopt;
    }
    case SlidePolicy::kSlideUp: {
      // Slide toward higher-order bytes only, never wrapping (Fig 4, step 3).
      if (static_cast<std::size_t>(preferred) + size_bytes > kBlockBytes) return std::nullopt;
      if (clean) return preferred;
      const auto prefix = array.byte_stuck_prefix(line);
      for (std::uint8_t start = preferred;
           static_cast<std::size_t>(start) + size_bytes <= kBlockBytes; ++start) {
        if (start_fits(array, line, prefix, start, size_bytes, {})) return start;
      }
      return std::nullopt;
    }
    case SlidePolicy::kAnywhere: {
      if (clean) return preferred;
      const auto prefix = array.byte_stuck_prefix(line);
      for (std::size_t i = 0; i < kBlockBytes; ++i) {
        const auto start = static_cast<std::uint8_t>((preferred + i) % kBlockBytes);
        if (start_fits(array, line, prefix, start, size_bytes, {})) return start;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace pcmsim
