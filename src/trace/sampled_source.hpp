// Batched rewrite-pattern sampler: the synthetic write-back source.
//
// The workload model (workload/app_profile.hpp, workload/value_model.hpp):
// each event draws a Zipf popularity rank, folds it onto the region with
// fold_rank (trace/event.hpp), and rewrites that line's value. A line's value
// class comes from ClassAssigner, its first shape from initial_line_shape,
// and each rewrite bumps its version or, with probability
// shape_redraw_prob, redraws its shape. The value is the pure function
// generate_value(class, line, shape, version).
//
// Three implementation choices keep the per-event cost low:
//   1. flat arrays indexed by the folded line (the region is small by
//      construction: traces fold the app's working set onto the simulated
//      PCM region) instead of a map;
//   2. an O(1) Walker/Vose alias table over the Zipf pmf (ZipfAliasTable)
//      instead of a binary search over a multi-MB CDF. The table is immutable
//      once built, so sources of the same app may share one: the sharded
//      engine builds one per app, not one per tenant;
//   3. cached static base + current blocks per line, advanced one version
//      incrementally via value_model's apply_dynamic (revert the previous
//      version's touched words, apply the new overlay) instead of full value
//      resynthesis per event.
//
// tests/trace_sampler_test.cpp checks the stream against the model's own
// definitions (ZipfSampler::pmf folded through fold_rank, ClassAssigner::of,
// shape_redraw_prob, the set of lines fold_rank reaches); workload_test pins
// it to Table III compression ratios and the Fig-6 volatility ranking.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "trace/trace_source.hpp"
#include "workload/app_profile.hpp"
#include "workload/value_model.hpp"

namespace pcmsim {

/// Walker/Vose alias table over Zipf ranks: P(rank k) proportional to
/// 1/(k+1)^theta, the same pmf as common/zipf.hpp's CDF sampler. Each draw
/// is O(1). Memory is 12 bytes per rank (a double and a 32-bit alias); while
/// building, two work lists hold one more 32-bit index per rank. The table is
/// immutable after construction and draw() is const, so any number of
/// sources may share one through a shared_ptr.
class ZipfAliasTable {
 public:
  ZipfAliasTable(std::uint64_t n, double theta);

  [[nodiscard]] std::uint64_t size() const { return alias_.size(); }

  /// One rank: a uniform slot, then a uniform coin against its probability
  /// (two draws from `rng`, always in that order).
  [[nodiscard]] std::uint64_t draw(Rng& rng) const {
    const std::uint64_t i = rng.next_below(alias_.size());
    return rng.next_double() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

class SampledTraceSource final : public TraceSource {
 public:
  /// `region_lines` folds the app's working set onto the simulated PCM
  /// region (fold_rank). Memory is O(region_lines) for the cached per-line
  /// blocks plus the alias table over the app's working_set_lines, which
  /// this constructor builds for the source alone.
  SampledTraceSource(const AppProfile& app, std::uint64_t region_lines, std::uint64_t seed);

  /// Same stream, drawing ranks from `table`, which may be shared with other
  /// sources of the same app. The table must have app.working_set_lines
  /// ranks (ContractViolation otherwise); its theta is the caller's to match.
  SampledTraceSource(const AppProfile& app, std::uint64_t region_lines, std::uint64_t seed,
                     std::shared_ptr<const ZipfAliasTable> table);

  SampledTraceSource(const SampledTraceSource&) = delete;
  SampledTraceSource& operator=(const SampledTraceSource&) = delete;

  std::size_t next_batch(std::span<WritebackEvent> out) override;
  [[nodiscard]] std::uint64_t events() const override { return events_; }
  void reset() override;

  [[nodiscard]] const AppProfile& app() const { return app_; }
  [[nodiscard]] std::uint64_t region_lines() const { return region_lines_; }

  /// The value class governing `line`'s contents (ClassAssigner::of).
  [[nodiscard]] const ValueClassSpec& class_of(LineAddr line) const;

  /// Value most recently produced for `line` (all-zero if never written).
  [[nodiscard]] Block current_value(LineAddr line) const;

  /// Calibration introspection (tests/trace_sampler_test.cpp).
  [[nodiscard]] std::uint64_t shape_redraws() const { return shape_redraws_; }
  [[nodiscard]] std::uint64_t touched_lines() const { return touched_lines_; }

 private:
  struct LineState {
    std::uint32_t shape = 0;
    std::uint32_t version = 0;
    std::uint16_t touched = 0;  ///< 4-byte words written by the last apply_dynamic
    std::uint8_t class_index = 0;
    bool initialized = false;
  };

  void rebuild_base(LineAddr line, LineState& st);
  void produce(LineAddr line, WritebackEvent& ev);

  AppProfile app_;
  std::uint64_t region_lines_;
  std::uint64_t seed_;
  // Two independent streams: rank draws and per-line state updates. The
  // batch loop tiles rank draws ahead of state updates, so a single stream
  // would make the event sequence depend on the caller's batch size; with
  // split streams each is consumed strictly in event order and the stream is
  // identical for any batching.
  Rng rank_rng_;
  Rng state_rng_;
  ClassAssigner classes_;
  std::shared_ptr<const ZipfAliasTable> ranks_;  ///< may be shared with other sources
  // Flat per-line state, indexed by folded line address.
  std::vector<LineState> states_;
  std::vector<ValueGenContext> ctx_;
  std::vector<Block> base_;     ///< static base of (line, shape)
  std::vector<Block> current_;  ///< base + current version's dynamic overlay
  std::uint64_t events_ = 0;
  std::uint64_t shape_redraws_ = 0;
  std::uint64_t touched_lines_ = 0;
};

}  // namespace pcmsim
