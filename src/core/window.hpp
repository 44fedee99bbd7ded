// Compression-window placement over a PCM line (paper Section III-A, Fig 4).
//
// A window is `size_bytes` contiguous bytes of the 512-bit data area starting
// at `start_byte`; with intra-line rotation enabled it may wrap around the
// end of the line. A window "fits" when the hard-error scheme can still store
// arbitrary data given the stuck cells inside it — faults outside the window
// are simply dodged, which is how the design tolerates far more than the
// scheme's nominal correction strength.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ecc/scheme.hpp"
#include "pcm/array.hpp"

namespace pcmsim {

/// A (possibly wrapping) window maps to one or two bit ranges in the line.
struct WindowSegments {
  struct Seg {
    std::size_t bit_off;
    std::size_t nbits;
  };
  std::array<Seg, 2> seg{};
  std::size_t count = 0;
};

[[nodiscard]] WindowSegments window_segments(std::uint8_t start_byte, std::uint8_t size_bytes);

/// Stuck cells inside the window, positions *window-relative* (so the error
/// scheme sees a contiguous protected unit), with their latched values.
/// Test-only convenience (allocates); hot paths use window_faults_into().
[[nodiscard]] std::vector<FaultCell> window_faults(const PcmArray& array, std::size_t line,
                                                   std::uint8_t start_byte,
                                                   std::uint8_t size_bytes);

/// Reads the raw image of a (possibly wrapping) window into `out`, which must
/// hold `size_bytes` bytes — the one segmented-read loop shared by the verify,
/// gap-move, and read paths.
void read_window_image(const PcmArray& array, std::size_t line, std::uint8_t start_byte,
                       std::uint8_t size_bytes, std::span<std::uint8_t> out);

/// Fixed-capacity fault storage: a 512-bit window holds at most 512 stuck
/// cells, so per-write paths collect faults on the stack instead of a vector.
struct WindowFaultBuffer {
  std::array<FaultCell, kBlockBits> cells;
  std::size_t count = 0;
};

/// Allocation-free window_faults(): fills `buf` and returns the live span.
[[nodiscard]] std::span<const FaultCell> window_faults_into(const PcmArray& array,
                                                            std::size_t line,
                                                            std::uint8_t start_byte,
                                                            std::uint8_t size_bytes,
                                                            WindowFaultBuffer& buf);

/// How the controller may move the window when the current position fails.
enum class SlidePolicy : std::uint8_t {
  kStay,     ///< only the preferred start (plain Comp before any slide)
  kSlideUp,  ///< slide toward higher-order bytes, no wrap (naive Comp, Fig 4-3)
  kAnywhere, ///< any start, wrap allowed (Comp+W / Comp+WF with rotation)
};

/// Places windows by fault count first: a window holding at most
/// guaranteed_correctable() stuck cells always fits and one holding more than
/// max_tolerable() never does, both read off the line's prefix sums. Only
/// counts in between collect the window's faults and ask the scheme.
class WindowPlacer {
 public:
  explicit WindowPlacer(const HardErrorScheme& scheme)
      : scheme_(&scheme),
        guaranteed_(scheme.guaranteed_correctable()),
        bound_(scheme.max_tolerable()) {}

  /// True when the window at `start` can store arbitrary data.
  [[nodiscard]] bool fits(const PcmArray& array, std::size_t line, std::uint8_t start,
                          std::uint8_t size_bytes) const;

  /// Slack-aware fits: `word_content[i]` is the number of content bits in u32
  /// cell i of the window (word-granularity schemes treat the remainder as
  /// don't-cares). Empty span == the data-independent overload above.
  [[nodiscard]] bool fits(const PcmArray& array, std::size_t line, std::uint8_t start,
                          std::uint8_t size_bytes,
                          std::span<const std::uint8_t> word_content) const;

  /// Finds a start position per the slide policy, trying `preferred` first.
  [[nodiscard]] std::optional<std::uint8_t> find(const PcmArray& array, std::size_t line,
                                                 std::uint8_t size_bytes,
                                                 std::uint8_t preferred,
                                                 SlidePolicy policy) const;

  [[nodiscard]] const HardErrorScheme& scheme() const { return *scheme_; }

 private:
  /// fits() for one start once the line is known to exceed the guarantee.
  [[nodiscard]] bool start_fits(const PcmArray& array, std::size_t line,
                                std::span<const std::uint16_t> prefix, std::uint8_t start,
                                std::uint8_t size_bytes,
                                std::span<const std::uint8_t> word_content) const;

  const HardErrorScheme* scheme_;
  std::size_t guaranteed_;  ///< scheme_->guaranteed_correctable()
  std::size_t bound_;       ///< scheme_->max_tolerable()
};

}  // namespace pcmsim
