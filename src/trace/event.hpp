// The write-back event every trace source produces, and the two per-line
// hashes the synthetic stream is defined by.
//
// The paper collects LLC write-back traces in gem5 and replays them against a
// lightweight PCM lifetime simulator. Here the synthetic source
// (sampled_source.hpp) produces an *unbounded* calibrated stream instead:
// replaying a finite recorded trace verbatim would be degenerate under
// differential writes (the second pass would rewrite identical values and
// flip nothing), so the lifetime engine consumes a continuing stream whose
// values keep evolving.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace pcmsim {

/// One LLC write-back: a line address and the full 64-byte value written.
struct WritebackEvent {
  LineAddr line = 0;
  Block data{};
};

/// Stable pseudo-random rank->line map: decouples Zipf popularity rank from
/// spatial position and from the hash that assigns value classes. Folds the
/// app's working set onto the simulated region (the standard trace-sampling
/// methodology for lifetime studies).
[[nodiscard]] inline LineAddr fold_rank(std::uint64_t rank, std::uint64_t seed,
                                        std::uint64_t region_lines) {
  return mix64(rank ^ (seed * 0x2545F4914F6CDD1Dull)) % region_lines;
}

/// First-touch shape of a line (the value model's per-line variant).
[[nodiscard]] inline std::uint32_t initial_line_shape(LineAddr line, std::uint64_t seed) {
  return static_cast<std::uint32_t>(mix64(line ^ seed ^ 0xBEEFull));
}

}  // namespace pcmsim
