// The proposed PCM memory system (paper Section III): compression-window
// writes, the Figure-8 write-decision heuristic, intra-line wear-leveling by
// bank-counter rotation, sliding-window hard-error tolerance, and dead-block
// recycling — composed over the substrates (PCM array, Start-Gap, ECC scheme,
// BDI/FPC compression).
//
// PcmSystem models one simulated memory region (a sampled slice of the 4 GB
// DIMM) and is driven by write-back events. Two operating modes:
//  * lifetime mode (default): plain data images are written and hard-error
//    tolerability is tracked via can_tolerate() — fast enough to wear a whole
//    region out, the paper's own methodology;
//  * functional-verify mode: every window is stored through the error
//    scheme's real encode() and read back through decode(), so tests can
//    assert end-to-end data integrity in the presence of stuck cells.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/profiler.hpp"
#include "common/stats.hpp"
#include "compression/best_of.hpp"
#include "core/heuristic.hpp"
#include "core/line_meta.hpp"
#include "core/window.hpp"
#include "ecc/registry.hpp"
#include "pcm/array.hpp"
#include "wear/rotation.hpp"
#include "wear/start_gap.hpp"

namespace pcmsim {

/// Which of the paper's four evaluated systems to model (Section IV).
enum class SystemMode : std::uint8_t {
  kBaseline,  ///< DW + Start-Gap + ECC, no compression
  kComp,      ///< + naive compression (window at LSB, slide-up only)
  kCompW,     ///< + intra-line wear-leveling (rotation, wrap-around windows)
  kCompWF,    ///< + write heuristic + advanced tolerance (dead-block recycling)
};

[[nodiscard]] std::string_view to_string(SystemMode m);

struct SystemConfig {
  SystemMode mode = SystemMode::kCompWF;
  /// Hard-error scheme spec resolved through the ECC registry ("ecp6",
  /// "bch-t2", "coset-w4", ... — see ecc/registry.hpp).
  std::string ecc_spec = "ecp6";
  PcmDeviceConfig device;         ///< device.lines = physical lines (incl. gap)
  std::uint32_t banks = 8;        ///< Table II: 2 channels x 1 rank x 4 banks
  std::uint64_t gap_interval = 100;
  /// Bank-counter saturation for intra-line rotation. 0 = auto: 2 x
  /// endurance_mean (min 1), the plateau bench/ablate_intraline measures.
  std::uint64_t rotation_threshold = 0;
  HeuristicConfig heuristic;      ///< active in kCompWF (and ablations)
  double dead_capacity_fraction = 0.5;  ///< system fails at 50% worn capacity
  bool functional_verify = false;
  std::uint64_t seed = 1;

  /// Per-mode feature switches (derived from `mode` unless overridden).
  [[nodiscard]] bool compression_enabled() const { return mode != SystemMode::kBaseline; }
  [[nodiscard]] bool rotation_enabled() const {
    return mode == SystemMode::kCompW || mode == SystemMode::kCompWF;
  }
  [[nodiscard]] bool heuristic_enabled() const {
    return mode == SystemMode::kCompWF && heuristic.enabled;
  }
  [[nodiscard]] bool recycling_enabled() const { return mode == SystemMode::kCompWF; }
};

struct SystemStats {
  std::uint64_t writes = 0;
  std::uint64_t compressed_writes = 0;
  std::uint64_t uncompressed_writes = 0;
  std::uint64_t dropped_writes = 0;       ///< writes to dead, unrecycled lines
  std::uint64_t uncorrectable_events = 0; ///< line deaths (data loss events)
  std::uint64_t window_slides = 0;        ///< placements away from the preferred start
  std::uint64_t recycled_lines = 0;       ///< dead lines brought back by a smaller write
  std::uint64_t gap_moves = 0;
  std::uint64_t lines_dead = 0;           ///< currently dead physical lines
  RunningStat faults_at_death;            ///< stuck cells per line when it died (Fig 12)
  RunningStat flips_per_write;            ///< programmed bits per serviced write
  RunningStat compressed_size;            ///< bytes per compressed write

  /// Exact merge of another system's stats into this one (counters sum, the
  /// RunningStats combine via the parallel-variance formula). Merging the
  /// per-shard stats of a sharded run in shard order yields one aggregate
  /// that is independent of how many threads executed the shards.
  void merge(const SystemStats& other);
};

class PcmSystem {
 public:
  explicit PcmSystem(const SystemConfig& config);

  struct WriteOutcome {
    bool stored = false;       ///< data is durably held somewhere in the line
    bool line_died = false;    ///< this write killed the line
    bool compressed = false;
    std::uint8_t start_byte = 0;
    std::uint8_t size_bytes = 0;
    std::size_t flips = 0;     ///< programming pulses issued (incl. gap copies)
  };

  /// Services one LLC write-back.
  WriteOutcome write(LineAddr logical, const Block& data);

  /// Functional-verify mode only: reads back a line's logical content.
  [[nodiscard]] Block read(LineAddr logical) const;

  /// Fraction of physical lines currently dead.
  [[nodiscard]] double dead_fraction() const;
  /// True when the system has reached its end of life (Section IV fault model).
  [[nodiscard]] bool failed() const;

  [[nodiscard]] const SystemStats& stats() const { return stats_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] const PcmArray& array() const { return array_; }
  [[nodiscard]] const HardErrorScheme& scheme() const { return *scheme_; }
  [[nodiscard]] std::uint64_t logical_lines() const { return startgap_.logical_lines(); }

  /// Per-line introspection (benches/tests).
  [[nodiscard]] const LineMeta& line_meta(std::uint64_t physical) const {
    return lines_.at(physical);
  }
  [[nodiscard]] std::uint64_t physical_of(LineAddr logical) const {
    return startgap_.map(logical);
  }

 private:
  struct PlacedWrite {
    std::uint8_t start = 0;
    std::size_t flips = 0;
  };

  /// What a store path put into the line; write() applies it to the line's
  /// metadata and the stats in one place.
  struct StoredImage {
    PlacedWrite placed;
    std::uint8_t size_bytes = kBlockBytes;
    bool compressed = false;    ///< packed window image (reads need the decompressor)
    std::uint8_t encoding = 0;  ///< pack_encoding() of the image; 0 = uncompressed
    /// Content bytes the stats count as a compressed write; nullopt counts
    /// the write as uncompressed.
    std::optional<std::uint8_t> footprint;
  };

  /// Window store (line-granularity schemes): the Fig-8 decision, then the
  /// chosen representation, falling back to the other. nullopt when neither
  /// fits (the caller marks the line dead).
  std::optional<StoredImage> store_window(std::uint64_t physical, std::uint32_t bank,
                                          LineMeta& info, const Block& data);

  /// Word-granularity store (SchemeGranularity::kWord schemes): the whole
  /// line is encoded in place, with the compression scan's per-word content
  /// bits telling the placement check which stuck cells fall into slack.
  std::optional<StoredImage> store_words(std::uint64_t physical, const Block& data);

  /// Places and programs a plain image of `size_bytes`. Returns nullopt when
  /// the line cannot hold it.
  std::optional<PlacedWrite> try_store(std::uint64_t physical, std::uint32_t bank,
                                       std::span<const std::uint8_t> image,
                                       std::uint8_t size_bytes);

  /// try_store generalized over a deferred image: placement runs on
  /// `size_bytes` alone and `image_of()` is first invoked only when a window
  /// has been found and is about to be programmed — this is what lets the
  /// compressed path delay materialization past the placement search.
  template <typename ImageFn>
  std::optional<PlacedWrite> try_store_with(std::uint64_t physical, std::uint32_t bank,
                                            ImageFn&& image_of, std::uint8_t size_bytes) {
    const SlidePolicy policy =
        size_bytes == kBlockBytes ? SlidePolicy::kStay : slide_policy();
    const std::uint8_t preferred = preferred_start(lines_[physical], bank, size_bytes);
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::optional<std::uint8_t> start;
      {
        const prof::ScopedStage stage(prof::Stage::kPlace);
        start = placer_.find(array_, physical, size_bytes, preferred, policy);
      }
      if (!start) return std::nullopt;
      if (*start != preferred) ++stats_.window_slides;
      const auto flips = write_window(physical, *start, image_of(), size_bytes);
      if (flips) return PlacedWrite{*start, *flips};
      // Window became intolerable mid-write; search again with the fresh
      // faults.
    }
    return std::nullopt;
  }

  /// Writes `image` into the window at `start` (splitting wrap segments);
  /// returns programming pulses. In functional mode routes through encode().
  std::optional<std::size_t> write_window(std::uint64_t physical, std::uint8_t start,
                                          std::span<const std::uint8_t> image,
                                          std::uint8_t size_bytes);

  /// Stores `image` through the scheme's encode() into the window at
  /// `start`, re-encoding while the write itself wears out cells. With
  /// `word_content` (per-u32 content bits), the slack-aware fit is checked
  /// before every attempt. Returns programming pulses, or nullopt when the
  /// window cannot hold the data.
  std::optional<std::size_t> write_encoded(std::uint64_t physical, std::uint8_t start,
                                           std::span<const std::uint8_t> image,
                                           std::uint8_t size_bytes,
                                           std::span<const std::uint8_t> word_content);

  /// One segmented differential write of a window image (the program stage).
  struct SegmentWrite {
    std::size_t flips = 0;
    bool new_faults = false;
  };
  SegmentWrite write_window_segments(std::uint64_t physical, std::uint8_t start,
                                     std::span<const std::uint8_t> image,
                                     std::uint8_t size_bytes);

  void handle_gap_move(const StartGap::GapMove& move);
  void mark_dead(std::uint64_t physical);
  /// A dead line that stored a write again: leaves the dead count (Section
  /// V-A.3's "return from the dead"). No-op for a live line.
  void revive(LineMeta& info);
  [[nodiscard]] SlidePolicy slide_policy() const;
  [[nodiscard]] std::uint8_t preferred_start(const LineMeta& info, std::uint32_t bank,
                                             std::uint8_t size_bytes) const;

  SystemConfig config_;
  PcmArray array_;
  StartGap startgap_;
  IntraLineRotator rotator_;
  std::unique_ptr<HardErrorScheme> scheme_;
  BestOfCompressor compressor_;
  WindowPlacer placer_;
  std::vector<LineMeta> lines_;           // indexed by physical line
  std::vector<std::uint64_t> ecc_meta_;   // functional mode: per-line scheme metadata
  bool word_mode_ = false;                // scheme granularity == kWord
  SystemStats stats_;
};

}  // namespace pcmsim
