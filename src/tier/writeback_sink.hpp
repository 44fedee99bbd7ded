// Adapters closing the cache → tier → PCM loop.
//
// CmpHierarchy emits dirty L2 victims through a WritebackSink; FrontTier
// emits evicted lines through a ForwardSink; PcmSystem::write consumes them.
// These two helpers snap the three seams together; pcm_forward_sink is also
// run_lifetime's tier sink, so a hierarchy-driven run (the table3/WPKI path)
// lands tier evictions on PCM exactly as a TraceSource stream does.
//
// Header-only on purpose: it is the one place the tier touches cache and
// core types, so pcmsim_tier itself stays free of those dependencies and the
// binaries that already link pcmsim_cache + pcmsim_core pay nothing extra.
#pragma once

#include "cache/cache.hpp"
#include "core/system.hpp"
#include "tier/front_tier.hpp"

namespace pcmsim {

/// A CmpHierarchy::WritebackSink that offers every dirty L2 victim to `tier`.
[[nodiscard]] inline std::function<void(const Writeback&)> tier_writeback_sink(
    FrontTier& tier) {
  return [&tier](const Writeback& wb) { (void)tier.put(wb.line, wb.data); };
}

/// A FrontTier::ForwardSink landing tier evictions on `system`, folding the
/// line onto the system's logical space (identity for in-range addresses).
[[nodiscard]] inline FrontTier::ForwardSink pcm_forward_sink(PcmSystem& system) {
  return [&system](const FrontTier::Forward& fwd) {
    (void)system.write(fwd.line % system.logical_lines(), fwd.data);
  };
}

}  // namespace pcmsim
