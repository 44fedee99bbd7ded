#include "ecc/scheme.hpp"

#include "common/assert.hpp"

namespace pcmsim {

SchemeTraits HardErrorScheme::traits() const {
  SchemeTraits t;
  t.metadata_bits = metadata_bits();
  t.guaranteed_correctable = guaranteed_correctable();
  t.max_tolerable = max_tolerable();
  return t;
}

bool HardErrorScheme::can_tolerate_with(std::span<const FaultCell> faults,
                                        std::size_t window_bits,
                                        std::span<const std::uint8_t> /*word_content*/) const {
  return can_tolerate(faults, window_bits);
}

void HardErrorScheme::word_content_bits(const WordClassScan& /*scan*/,
                                        std::span<std::uint8_t> /*out*/) const {
  expects(false, "scheme has no word-granularity slack seam");
}

InlineBytes apply_faults(std::span<const std::uint8_t> image, std::size_t window_bits,
                         std::span<const FaultCell> faults) {
  expects(image.size() * 8 >= window_bits, "image too small for window");
  InlineBytes out(image);
  for (const auto& f : faults) {
    expects(f.pos < window_bits, "fault outside window");
    set_bit(out, f.pos, f.stuck_value);
  }
  return out;
}

}  // namespace pcmsim
