#include "trace/sampled_source.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/profiler.hpp"
#include "common/simd.hpp"

namespace pcmsim {

ZipfAliasTable::ZipfAliasTable(std::uint64_t n, double theta) {
  // Walker/Vose alias construction over the Zipf weights 1/(k+1)^theta.
  // O(n) setup amortized over every draw; each draw is then O(1) instead of
  // the CDF sampler's O(log n) binary search over a multi-MB array. The
  // weights are written straight into prob_ and scaled in place.
  expects(n > 0, "Zipf universe must be non-empty");
  expects(n <= (std::uint64_t{1} << 32), "alias table index must fit 32 bits");
  prob_.resize(n);
  alias_.resize(n);
  double total = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    prob_[k] = 1.0 / std::pow(static_cast<double>(k + 1), theta);
    total += prob_[k];
    alias_[k] = static_cast<std::uint32_t>(k);
  }

  const double scale = static_cast<double>(n) / total;
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::uint64_t k = 0; k < n; ++k) {
    prob_[k] *= scale;
    (prob_[k] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(k));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias_[s] = l;
    prob_[l] -= 1.0 - prob_[s];
    (prob_[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are 1.0 up to rounding; clamp so they always take their own slot.
  for (const std::uint32_t k : small) prob_[k] = 1.0;
  for (const std::uint32_t k : large) prob_[k] = 1.0;
}

SampledTraceSource::SampledTraceSource(const AppProfile& app, std::uint64_t region_lines,
                                       std::uint64_t seed)
    : SampledTraceSource(app, region_lines, seed,
                         std::make_shared<const ZipfAliasTable>(app.working_set_lines,
                                                                app.zipf_theta)) {}

SampledTraceSource::SampledTraceSource(const AppProfile& app, std::uint64_t region_lines,
                                       std::uint64_t seed,
                                       std::shared_ptr<const ZipfAliasTable> table)
    : app_(app),
      region_lines_(region_lines),
      seed_(seed),
      rank_rng_(mix64(seed ^ 0x7ac3ull)),
      state_rng_(mix64(seed ^ 0x51a7e5ull)),
      classes_(app_, seed),
      ranks_(std::move(table)) {
  expects(region_lines > 0, "region must be non-empty");
  expects(app_.classes.size() <= 256, "class index must fit a byte");
  expects(ranks_ != nullptr && ranks_->size() == app_.working_set_lines,
          "alias table must cover the app's working set");
  states_.resize(region_lines_);
  ctx_.resize(region_lines_);
  base_.resize(region_lines_);
  current_.resize(region_lines_);
}

void SampledTraceSource::rebuild_base(LineAddr line, LineState& st) {
  const ValueClassSpec& spec = app_.classes[st.class_index];
  ctx_[line] = make_gen_context(spec, line, st.shape);
  Block& base = base_[line];
  base = Block{};
  generate_static_base(spec, ctx_[line], base);
  current_[line] = base;
  st.touched = apply_dynamic(spec, ctx_[line], line, st.shape, st.version, current_[line]);
}

void SampledTraceSource::produce(LineAddr line, WritebackEvent& ev) {
  LineState& st = states_[line];
  if (!st.initialized) {
    st.initialized = true;
    ++touched_lines_;
    st.shape = initial_line_shape(line, seed_);
    st.version = 0;
    const ValueClassSpec& cls = classes_.of(line);
    st.class_index = static_cast<std::uint8_t>(&cls - app_.classes.data());
    rebuild_base(line, st);
  } else {
    ++st.version;
    if (state_rng_.next_bool(app_.shape_redraw_prob)) {
      ++shape_redraws_;
      st.shape = static_cast<std::uint32_t>(state_rng_());
      st.version = 0;
      rebuild_base(line, st);
    } else {
      // Revert the previous version's dynamic words to the static base, then
      // overlay the new version — bit-identical to resynthesizing the value
      // from scratch (see value_model.hpp's decomposition contract). The
      // revert is a masked blend of base_ into current_ over the 16 u32
      // lanes rather than a per-word memcpy bit-walk.
      Block& cur = current_[line];
      const Block& base = base_[line];
      if (st.touched != 0) simd::active::merge_block_u32(cur.data(), base.data(), st.touched);
      const ValueClassSpec& spec = app_.classes[st.class_index];
      st.touched = apply_dynamic(spec, ctx_[line], line, st.shape, st.version, cur);
    }
  }
  ev.line = line;
  ev.data = current_[line];
}

std::size_t SampledTraceSource::next_batch(std::span<WritebackEvent> out) {
  const prof::ScopedStage stage(prof::Stage::kTraceGen);
  // Tile the batch: draw a run of ranks back-to-back (tight RNG/alias loop),
  // then run the state updates. Keeps the hot alias arrays in cache across a
  // tile instead of interleaving them with 64-byte block traffic.
  const ZipfAliasTable& ranks = *ranks_;
  std::array<LineAddr, 64> lines;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t tile = std::min(lines.size(), out.size() - done);
    for (std::size_t i = 0; i < tile; ++i) {
      lines[i] = fold_rank(ranks.draw(rank_rng_), seed_, region_lines_);
    }
    for (std::size_t i = 0; i < tile; ++i) produce(lines[i], out[done + i]);
    done += tile;
  }
  events_ += out.size();
  return out.size();
}

void SampledTraceSource::reset() {
  rank_rng_.reseed(mix64(seed_ ^ 0x7ac3ull));
  state_rng_.reseed(mix64(seed_ ^ 0x51a7e5ull));
  std::fill(states_.begin(), states_.end(), LineState{});
  events_ = 0;
  shape_redraws_ = 0;
  touched_lines_ = 0;
}

const ValueClassSpec& SampledTraceSource::class_of(LineAddr line) const {
  return classes_.of(line);
}

Block SampledTraceSource::current_value(LineAddr line) const {
  expects(line < region_lines_, "line outside region");
  if (!states_[line].initialized) return zero_block();
  return current_[line];
}

}  // namespace pcmsim
