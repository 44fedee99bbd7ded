// 16-core CMP cache hierarchy (Table II): private L1 data caches over a
// shared, inclusive L2; dirty L2 victims are the PCM write-back traffic.
//
// This is the gem5/Ruby substitute: per-core synthetic load/store streams
// (address locality and value contents from the app profile) are filtered by
// the hierarchy, and the emitted write-backs — with real 64-byte payloads —
// feed the lifetime simulator or a trace file. WPKI falls out of the same
// run (Table III).
#pragma once

#include <functional>
#include <unordered_map>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "workload/app_profile.hpp"

namespace pcmsim {

struct HierarchyConfig {
  std::uint32_t cores = 16;
  std::size_t l1_bytes = 32 * 1024;  ///< per core, 2-way (Table II)
  std::size_t l1_assoc = 2;
  std::size_t l2_bytes = 4 * 1024 * 1024;  ///< shared, 8-way
  std::size_t l2_assoc = 8;
};

class CmpHierarchy {
 public:
  using WritebackSink = std::function<void(const Writeback&)>;

  CmpHierarchy(const HierarchyConfig& config, WritebackSink sink);

  /// One load/store from `core`. `fill` supplies memory content on an L2
  /// miss; `store_data` is the line's new content for stores. `fill` is read
  /// only when holds(core, line) is false.
  void access(std::uint32_t core, LineAddr line, bool is_store, const Block* store_data,
              const Block& fill);

  /// Whether `core`'s L1 or the shared L2 holds `line`. No side effects.
  [[nodiscard]] bool holds(std::uint32_t core, LineAddr line) const;

  /// Zeroes all statistics; cache contents stay warm.
  void reset_stats();

  [[nodiscard]] const CacheLevel& l2() const { return l2_; }
  [[nodiscard]] const CacheLevel& l1(std::uint32_t core) const { return l1s_.at(core); }
  [[nodiscard]] std::uint64_t writebacks_to_memory() const { return wb_count_; }

 private:
  void handle_l2_eviction(const CacheLevel::AccessResult& result);

  HierarchyConfig config_;
  std::vector<CacheLevel> l1s_;
  CacheLevel l2_;
  WritebackSink sink_;
  std::uint64_t wb_count_ = 0;
};

/// Drives a CmpHierarchy with the app profile's synthetic core streams and
/// measures WPKI; optionally forwards write-backs to a sink (lifetime sim or
/// trace file).
class CmpSimulator {
 public:
  CmpSimulator(const AppProfile& app, const HierarchyConfig& config, std::uint64_t seed,
               CmpHierarchy::WritebackSink sink = nullptr);

  // Non-copyable: the class assigner points into the stored profile copy.
  CmpSimulator(const CmpSimulator&) = delete;
  CmpSimulator& operator=(const CmpSimulator&) = delete;

  /// Runs `instructions` per core (all cores run the same program, Section IV).
  void run(std::uint64_t instructions_per_core);

  /// Zeroes WPKI/miss statistics after warmup; cache contents stay warm.
  void reset_stats();

  [[nodiscard]] double wpki() const;
  [[nodiscard]] double l2_miss_rate() const;
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] const CmpHierarchy& hierarchy() const { return hierarchy_; }

 private:
  struct LineState {
    std::uint32_t shape = 0;
    std::uint32_t version = 0;
  };

  [[nodiscard]] Block value_of(LineAddr line) const;
  [[nodiscard]] Block next_store_value(LineAddr line);

  AppProfile app_;
  HierarchyConfig config_;
  CmpHierarchy hierarchy_;
  Rng rng_;
  ZipfSampler zipf_;           ///< full working set ("far" stream)
  ZipfSampler resident_zipf_;  ///< cache-resident hot subset
  double far_prob_;            ///< P(access leaves the resident set)
  ClassAssigner classes_;
  std::unordered_map<LineAddr, LineState> states_;
  std::uint64_t instructions_ = 0;
  std::uint64_t seed_;
};

}  // namespace pcmsim
