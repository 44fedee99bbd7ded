// Content-aware DRAM front tier: a set-associative write-back buffer that
// absorbs LLC write-back traffic before it reaches PCM (ROADMAP item 4).
//
// Every production PCM deployment fronts the array with a DRAM/eDRAM
// write-back tier. FrontTier models that tier as a sets x ways buffer of full
// 64-byte payloads with pluggable policies:
//
//   * kLru    — plain LRU write-back buffer; the content-blind control.
//               Absorption comes only from write coalescing on tier hits.
//   * kSilent — LRU plus silent/partial-store elimination: a miss whose
//               payload matches the PCM-resident line (cheap 64-bit content
//               fingerprint, verified word-by-word) is dropped outright, and
//               partially-overlapping misses/updates track a touched-word
//               mask so the tier reports how much of each eviction the PCM
//               write path actually needs (the differential write makes the
//               shrink free of charge downstream).
//   * kComp   — silent elimination plus compressibility-aware retention:
//               victims are chosen among the least-recently-used half of the
//               set by *smallest compressed-size probe first*, so
//               poorly-compressible lines — the ones that burn the most PCM
//               flips and energy per write-back — stay in DRAM longer.
//
// There is no CARAM-style payload-dedup policy: the SPEC-calibrated streams
// carry no cross-line payload redundancy, so dedup matched kSilent on every
// cell (EXPERIMENTS.md, "Content-aware front tier", honest nulls).
//
// The tier charges DRAM write-hit latency through its own MemoryController
// instance (a second controller next to the PCM one), so runs report modeled
// latency alongside lifetime amplification. Everything is deterministic:
// the structure is driven synchronously by put(), victim choice scans in
// fixed order, and no RNG is involved. Runs never flush the tier: lines still
// resident at PCM death never cost PCM writes.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "compression/best_of.hpp"
#include "controller/controller.hpp"

namespace pcmsim {

/// Victim-selection / content-awareness policy of the front tier.
enum class TierPolicy : std::uint8_t {
  kLru,     ///< plain LRU write-back buffer (control)
  kSilent,  ///< + silent/partial-store elimination against the PCM copy
  kComp,    ///< + compressibility-aware retention (evict compressible first)
};

[[nodiscard]] std::string_view to_string(TierPolicy p);
/// Parses "lru" / "silent" / "comp"; throws ContractViolation on anything
/// else.
[[nodiscard]] TierPolicy tier_policy_from_string(std::string_view s);

/// DDR3-DRAM-flavoured controller timings for the tier (same 400 MHz command
/// clock as the PCM model, but without PCM's slow programming commit). Only
/// the relative DRAM-vs-PCM service gap matters for the modeled latency.
[[nodiscard]] ControllerConfig dram_tier_controller_config();

struct FrontTierConfig {
  /// Payload capacity in 64-byte lines; 0 disables the tier everywhere it is
  /// embedded (run_lifetime, the sharded engine) — the default, so every
  /// pinned checksum predates of the tier is unchanged.
  std::size_t capacity_lines = 0;
  std::size_t ways = 8;  ///< lines per set (set-associativity)
  TierPolicy policy = TierPolicy::kLru;
  ControllerConfig controller = dram_tier_controller_config();
  /// Controller cycles between consecutive offered write-backs (arrival
  /// pacing for the embedded controller; the sharded engine passes its own
  /// global dispatch order instead).
  std::uint64_t arrival_gap_cycles = 16;

  [[nodiscard]] bool enabled() const { return capacity_lines > 0; }

  /// Convenience: a tier of `kb` DRAM kilobytes under `policy`.
  [[nodiscard]] static FrontTierConfig for_kb(std::size_t kb, TierPolicy policy);
};

/// Counters the tier reports; all integers so digests can fold them exactly.
struct FrontTierStats {
  std::uint64_t offered = 0;       ///< write-backs presented to the tier
  std::uint64_t hits = 0;          ///< coalesced into a resident entry
  std::uint64_t silent_hits = 0;   ///< hit with byte-identical payload
  std::uint64_t silent_drops = 0;  ///< miss dropped: payload == PCM-resident
  std::uint64_t inserts = 0;       ///< misses that allocated an entry
  std::uint64_t evictions = 0;     ///< victims forwarded to PCM
  // Always zero (the tier has no flush, invalidate or dedup); kept because
  // perfbench/pcmbench.cpp and the front-tier and engine digests fold them.
  std::uint64_t flushes = 0;
  std::uint64_t invalidates = 0;
  std::uint64_t dedup_shares = 0;
  std::uint64_t fp_false_hits = 0; ///< fingerprint matched, bytes differed
  /// Partial-store shrink accounting: of the 16 u32 words in every forwarded
  /// line, how many were actually touched since the PCM-resident copy (only
  /// maintained by the content-aware policies; kLru forwards full lines).
  std::uint64_t words_forwarded = 0;
  std::uint64_t words_touched = 0;

  /// Write-backs the tier absorbed (never reached PCM as a write).
  [[nodiscard]] std::uint64_t absorbed() const { return hits + silent_drops; }

  /// Exact sum of another tier's counters (the sharded engine aggregates its
  /// per-shard tiers in shard order).
  void merge(const FrontTierStats& other) {
    offered += other.offered;
    hits += other.hits;
    silent_hits += other.silent_hits;
    silent_drops += other.silent_drops;
    inserts += other.inserts;
    evictions += other.evictions;
    flushes += other.flushes;
    invalidates += other.invalidates;
    dedup_shares += other.dedup_shares;
    fp_false_hits += other.fp_false_hits;
    words_forwarded += other.words_forwarded;
    words_touched += other.words_touched;
  }
};

/// The front tier itself. Write-backs enter via put(); evicted dirty lines
/// leave through the forward sink (the PCM write path).
class FrontTier {
 public:
  /// A line leaving the tier toward PCM. `tag` is an opaque caller id carried
  /// from put() to the sink (the sharded engine stores the tenant index).
  struct Forward {
    LineAddr line = 0;
    std::uint32_t tag = 0;
    Block data{};
  };
  using ForwardSink = std::function<void(const Forward&)>;

  FrontTier(const FrontTierConfig& config, ForwardSink sink);

  enum class Outcome : std::uint8_t {
    kHit,         ///< coalesced into a resident entry (absorbed)
    kSilentHit,   ///< hit, payload already identical (absorbed)
    kSilentDrop,  ///< miss, payload matches PCM-resident copy (absorbed)
    kInserted,    ///< miss, allocated (a victim may have been forwarded)
  };

  /// Offers one write-back; arrival time for the latency model is paced by
  /// the internal offered counter.
  Outcome put(LineAddr line, const Block& data, std::uint32_t tag = 0);
  /// Same, with an explicit arrival order (the sharded engine's global
  /// dispatch index). `order` must be non-decreasing across calls.
  Outcome put_at(std::uint64_t order, LineAddr line, const Block& data,
                 std::uint32_t tag = 0);

  /// Seals the embedded latency model; call before reading controller().
  /// Idempotent; put() after finish_timing() throws via the controller.
  void finish_timing();

  [[nodiscard]] const FrontTierStats& stats() const { return stats_; }
  [[nodiscard]] const FrontTierConfig& config() const { return config_; }
  /// The embedded DRAM controller; never null. A pointer because
  /// perfbench/pcmbench.cpp reads it as one.
  [[nodiscard]] const MemoryController* controller() const { return &controller_; }

  // Introspection for tests and benches.
  [[nodiscard]] bool contains(LineAddr line) const;
  [[nodiscard]] const Block* peek(LineAddr line) const;
  [[nodiscard]] std::size_t resident_lines() const { return resident_; }
  /// The tier's view of the PCM-resident content of `line` (what it last
  /// forwarded), if any. The silent-store differential test compares this
  /// against a filterless reference model.
  [[nodiscard]] const Block* pcm_resident(LineAddr line) const;

  /// Content fingerprint used for silent-store candidacy; exposed so tests
  /// can construct colliding/matching payloads.
  [[nodiscard]] static std::uint64_t fingerprint(const Block& data);

 private:
  /// Tag way w of a set owns payload slot w; the two live in separate arrays
  /// so the tag scan on every put stays compact.
  struct TagEntry {
    LineAddr line = 0;
    bool valid = false;
    std::uint32_t tag = 0;       ///< caller id (tenant) of the last writer
    std::uint64_t lru = 0;       ///< global tick; larger = more recent
    std::uint16_t touched = 0;   ///< u32-word mask touched since PCM copy
  };
  struct PayloadSlot {
    Block data{};
    std::uint64_t fp = 0;
    std::uint8_t plan_size = kBlockBytes;  ///< compressed-size probe
  };
  struct ResidentLine {
    std::uint64_t fp = 0;
    Block data{};
  };

  [[nodiscard]] std::size_t set_of(LineAddr line) const;
  /// Index of `line`'s entry in tags_/payloads_, or tags_.size() if absent.
  [[nodiscard]] std::size_t find(std::size_t set, LineAddr line) const;
  /// Policy victim way of a full `set`.
  [[nodiscard]] std::size_t choose_victim(std::size_t set) const;
  /// Queues entry `idx` (an index into tags_) for forwarding and frees it.
  void evict(std::size_t idx);
  void charge_latency(std::uint64_t order);
  [[nodiscard]] std::uint16_t touched_words(const Block& before, const Block& after) const;
  [[nodiscard]] std::uint8_t probe_plan_size(const Block& data) const;

  Outcome put_impl(std::uint64_t order, LineAddr line, const Block& data, std::uint32_t tag);
  /// Filtering body of put (runs under the kTierFilter profiler stage);
  /// evictions it triggers are queued and forwarded by drain_forwards()
  /// outside the stage scope, so the stage measures pure filter cost.
  Outcome filter(LineAddr line, const Block& data, std::uint32_t tag);
  void drain_forwards();

  [[nodiscard]] bool content_aware() const { return config_.policy != TierPolicy::kLru; }

  FrontTierConfig config_;
  ForwardSink sink_;
  std::size_t sets_ = 0;
  std::vector<TagEntry> tags_;        ///< sets_ x ways, row-major
  std::vector<PayloadSlot> payloads_; ///< same shape; slot i belongs to tags_[i]
  std::unordered_map<LineAddr, ResidentLine> pcm_resident_;
  std::vector<Forward> pending_;  ///< evictions awaiting the sink
  BestOfCompressor compressor_;
  FrontTierStats stats_;
  MemoryController controller_;
  std::uint64_t tick_ = 0;       ///< LRU clock
  std::uint64_t last_order_ = 0; ///< last arrival order charged
  bool sealed_ = false;          ///< finish_timing() ran
  std::size_t resident_ = 0;
};

}  // namespace pcmsim
