// Heuristic-path equivalence: the Figure-8 write decision and its per-line
// 2-bit saturating counter must evolve identically whether the compressed
// size comes from the legacy materialize-first path (full compress(), then
// read size_bytes()) or from the size-only plan() probe the write path now
// uses. Deferred materialization can only be observationally equivalent if
// this holds for whole decision *sequences*, since each decision feeds the
// next through old_size and SC.
#include <gtest/gtest.h>

#include <vector>

#include "compression/best_of.hpp"
#include "core/heuristic.hpp"
#include "trace/sampled_source.hpp"

namespace pcmsim {
namespace {

struct LineState {
  std::uint8_t sc = 0;
  std::uint8_t size_bytes = kBlockBytes;
  bool ever_written = false;
};

/// One Figure-8 step given a compressed size probe, mirroring
/// PcmSystem::write's bookkeeping (old_size = stored size, SC persisted).
WriteDecision step(const HeuristicConfig& cfg, LineState& st,
                   const std::optional<std::size_t>& comp_size) {
  if (!comp_size) {
    // Incompressible: stored raw, no heuristic step (as in PcmSystem::write).
    st.size_bytes = kBlockBytes;
    st.ever_written = true;
    return WriteDecision{false, st.sc};
  }
  const auto size = static_cast<std::uint8_t>(*comp_size);
  const std::uint8_t old_size = st.ever_written ? st.size_bytes : kBlockBytes;
  const auto decision = decide_write(cfg, size, old_size, st.sc);
  st.sc = decision.new_sc;
  st.size_bytes = decision.store_compressed ? size : kBlockBytes;
  st.ever_written = true;
  return decision;
}

void run_app(const std::string& app_name, const HeuristicConfig& cfg, int writes) {
  const AppProfile& app = profile_by_name(app_name);
  BestOfCompressor best;
  SampledTraceSource source(app, 1 << 12, 0xFEEDu);
  TraceCursor gen(source);

  std::vector<LineState> legacy(1 << 12);
  std::vector<LineState> planned(1 << 12);
  for (int i = 0; i < writes; ++i) {
    const auto ev = gen.next();
    const auto idx = static_cast<std::size_t>(ev.line);

    // Legacy path: materialize first, then decide on the image's size.
    const auto image = best.compress(ev.data);
    const auto legacy_size =
        image ? std::optional<std::size_t>(image->size_bytes()) : std::nullopt;
    const auto a = step(cfg, legacy.at(idx), legacy_size);

    // Size-only path: decide on the plan's size, no materialization.
    const auto plan = best.plan(ev.data);
    const auto plan_size = plan ? std::optional<std::size_t>(plan->size_bytes()) : std::nullopt;
    const auto b = step(cfg, planned.at(idx), plan_size);

    ASSERT_EQ(legacy_size, plan_size) << app_name << " write " << i;
    ASSERT_EQ(a.store_compressed, b.store_compressed) << app_name << " write " << i;
    ASSERT_EQ(a.new_sc, b.new_sc) << app_name << " write " << i;
  }
  for (std::size_t l = 0; l < legacy.size(); ++l) {
    ASSERT_EQ(legacy[l].sc, planned[l].sc) << app_name << " line " << l;
    ASSERT_EQ(legacy[l].size_bytes, planned[l].size_bytes) << app_name << " line " << l;
  }
}

TEST(HeuristicPath, SizeOnlyDecisionsMatchMaterializeFirst) {
  const HeuristicConfig cfg;  // paper defaults (threshold1=16, threshold2=8)
  for (const char* app : {"gcc", "milc", "lbm", "zeusmp"}) {
    run_app(app, cfg, 20000);
  }
}

TEST(HeuristicPath, SizeOnlyDecisionsMatchUnderAblatedThresholds) {
  // The ablation bench's alternative configurations stress different branches
  // of Figure 8 (threshold3 cut-off, Figure-8-only SC updates).
  HeuristicConfig cfg;
  cfg.threshold1_bytes = 24;
  cfg.threshold2_bytes = 4;
  cfg.threshold3_bytes = 56;
  cfg.update_always = false;
  for (const char* app : {"gcc", "milc"}) {
    run_app(app, cfg, 20000);
  }
}

}  // namespace
}  // namespace pcmsim
