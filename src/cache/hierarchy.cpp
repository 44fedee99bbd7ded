#include "cache/hierarchy.hpp"

#include "common/assert.hpp"

namespace pcmsim {

CmpHierarchy::CmpHierarchy(const HierarchyConfig& config, WritebackSink sink)
    : config_(config), l2_("L2", config.l2_bytes, config.l2_assoc), sink_(std::move(sink)) {
  expects(config.cores >= 1, "need at least one core");
  l1s_.reserve(config.cores);
  for (std::uint32_t c = 0; c < config.cores; ++c) {
    l1s_.emplace_back("L1d-" + std::to_string(c), config.l1_bytes, config.l1_assoc);
  }
}

void CmpHierarchy::access(std::uint32_t core, LineAddr line, bool is_store,
                          const Block* store_data, const Block& fill) {
  CacheLevel& l1 = l1s_.at(core);

  // L1 lookup. On an L1 miss the fill content comes from L2 (or memory).
  if (l1.contains(line)) {
    (void)l1.access(line, is_store, store_data, fill);
    return;
  }

  // L2 lookup; L2 is the ordering point for the shared data (snooping MOESI
  // reduces to this in our single-writer synthetic streams).
  Block l2_fill = fill;
  if (const Block* in_l2 = l2_.peek(line)) l2_fill = *in_l2;
  const auto l2_result = l2_.access(line, false, nullptr, l2_fill);
  handle_l2_eviction(l2_result);

  const auto l1_result = l1.access(line, is_store, store_data, l2_fill);
  if (l1_result.writeback) {
    // Dirty L1 victim lands in L2 (write-back, inclusive: line is resident).
    const auto r = l2_.access(l1_result.writeback->line, true, &l1_result.writeback->data,
                              l1_result.writeback->data);
    handle_l2_eviction(r);
  }
}

bool CmpHierarchy::holds(std::uint32_t core, LineAddr line) const {
  return l1s_.at(core).contains(line) || l2_.contains(line);
}

void CmpHierarchy::handle_l2_eviction(const CacheLevel::AccessResult& result) {
  if (!result.evicted) return;
  // Inclusive hierarchy: every L2 eviction back-invalidates the L1 copies.
  // A dirty copy at ANY level must reach memory; the L1 copy (most recent)
  // supersedes the L2 content.
  std::optional<Block> dirty;
  if (result.writeback) dirty = result.writeback->data;
  for (auto& l1 : l1s_) {
    if (auto l1_wb = l1.invalidate(*result.evicted)) dirty = l1_wb->data;
  }
  if (dirty) {
    ++wb_count_;
    if (sink_) sink_(Writeback{*result.evicted, *dirty});
  }
}

void CmpHierarchy::reset_stats() {
  l2_.reset_stats();
  for (auto& l1 : l1s_) l1.reset_stats();
  wb_count_ = 0;
}

CmpSimulator::CmpSimulator(const AppProfile& app, const HierarchyConfig& config,
                           std::uint64_t seed, CmpHierarchy::WritebackSink sink)
    : app_(app),
      config_(config),
      hierarchy_(config, std::move(sink)),
      rng_(mix64(seed ^ 0xCACE)),
      zipf_(app.working_set_lines, app.zipf_theta),
      resident_zipf_(std::min<std::uint64_t>(
                         app.working_set_lines,
                         std::max<std::uint64_t>(
                             256, config.l2_bytes / kBlockBytes / 2 / config.cores)),
                     app.zipf_theta),
      classes_(app_, seed),
      seed_(seed) {
  // Two-level locality: most accesses recirculate in a cache-resident hot
  // subset; the "far" stream sweeps the full working set and produces the
  // LLC misses. Its probability is solved from the app's target WPKI
  // (Table III): wpki ~= 1000 x access-rate x store-fraction x P(far).
  // The far stream samples strictly outside the resident set (see run()), so
  // each far STORE is one eventual dirty eviction; far LOADS also evict, and
  // their victims are dirty with probability ~ store_fraction, so a far
  // access yields ~ sf + (1-sf)*sf = sf*(2-sf) write-backs on average.
  const double sf = app.store_fraction;
  far_prob_ = std::min(
      1.0, app.wpki / (1000.0 * app.mem_access_per_inst * sf * (2.0 - sf)));
}

Block CmpSimulator::value_of(LineAddr line) const {
  const auto it = states_.find(line);
  const std::uint32_t shape =
      it != states_.end() ? it->second.shape
                          : static_cast<std::uint32_t>(mix64(line ^ seed_ ^ 0xBEEFull));
  const std::uint32_t version = it != states_.end() ? it->second.version : 0;
  return generate_value(classes_.of(line), line, shape, version);
}

Block CmpSimulator::next_store_value(LineAddr line) {
  auto [it, fresh] = states_.try_emplace(line);
  if (fresh) {
    it->second.shape = static_cast<std::uint32_t>(mix64(line ^ seed_ ^ 0xBEEFull));
    it->second.version = 0;
  } else {
    ++it->second.version;
    if (rng_.next_bool(app_.shape_redraw_prob)) {
      it->second.shape = static_cast<std::uint32_t>(rng_());
      it->second.version = 0;
    }
  }
  return value_of(line);
}

void CmpSimulator::run(std::uint64_t instructions_per_core) {
  // Cores interleave instruction-by-instruction; each runs the same program
  // over a disjoint (hashed) slice of the working set (Section IV).
  for (std::uint64_t inst = 0; inst < instructions_per_core; ++inst) {
    for (std::uint32_t core = 0; core < config_.cores; ++core) {
      ++instructions_;
      if (!rng_.next_bool(app_.mem_access_per_inst)) continue;
      // Far ranks are offset past the resident universe so they always leave
      // the cached footprint; resident ranks recirculate within it.
      const std::uint64_t rank =
          rng_.next_bool(far_prob_)
              ? resident_zipf_.universe() + zipf_.sample(rng_)
              : resident_zipf_.sample(rng_);
      const LineAddr line =
          mix64(rank ^ (static_cast<std::uint64_t>(core) << 48) ^ seed_ * 31);
      const bool is_store = rng_.next_bool(app_.store_fraction);
      // Memory content matters only on an L1 and L2 miss, so it is synthesized
      // only then, and before next_store_value advances the line's version.
      const Block fill = hierarchy_.holds(core, line) ? Block{} : value_of(line);
      if (is_store) {
        const Block data = next_store_value(line);
        hierarchy_.access(core, line, true, &data, fill);
      } else {
        hierarchy_.access(core, line, false, nullptr, fill);
      }
    }
  }
}

void CmpSimulator::reset_stats() {
  hierarchy_.reset_stats();
  instructions_ = 0;
}

double CmpSimulator::wpki() const {
  return instructions_ ? 1000.0 * static_cast<double>(hierarchy_.writebacks_to_memory()) /
                             static_cast<double>(instructions_)
                       : 0.0;
}

double CmpSimulator::l2_miss_rate() const {
  const auto& l2 = hierarchy_.l2();
  const double total = static_cast<double>(l2.hits() + l2.misses());
  return total > 0 ? static_cast<double>(l2.misses()) / total : 0.0;
}

}  // namespace pcmsim
