// Table III: workload characterization — WPKI measured through the real
// L1/L2 hierarchy (the gem5 substitute) and compression ratio measured with
// best-of-BDI/FPC, against the paper's reported values.
//
// `--tier-kb N [--tier-policy lru|silent|comp]` closes the full
// cache → DRAM front tier → PCM loop: every dirty L2 victim is offered to a
// FrontTier (tier/writeback_sink.hpp) whose evictions land on a PcmSystem,
// and a second table reports how much of each app's write-back stream the
// tier absorbed before PCM saw it.
#include <iostream>
#include <optional>

#include "cache/hierarchy.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "compression/best_of.hpp"
#include "sim/experiments.hpp"
#include "tier/writeback_sink.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "instructions", "lines", "seed", "tier-kb",
                                  "tier-policy"});
  const auto instructions = args.get_uint("instructions", 400000);
  const std::uint64_t seed = args.get_uint("seed", 3);
  const FrontTierConfig tier_cfg = tier_config_from_cli(args);

  BestOfCompressor best;
  TablePrinter table({"app", "WPKI_meas", "WPKI_paper", "CR_meas", "CR_paper", "bucket",
                      "L2_missrate"});
  TablePrinter tier_table({"app", "offered", "absorbed", "absorb_%", "pcm_writes",
                           "mean_flips"});
  for (const auto& app : spec2006_profiles()) {
    RunningStat sizes;
    // The tiered run threads the write-backs through FrontTier into a real
    // PcmSystem; the plain run only probes compressed sizes. Both share the
    // same sink so the measured WPKI/CR columns are identical either way.
    std::optional<PcmSystem> pcm;
    std::optional<FrontTier> tier;
    if (tier_cfg.enabled()) {
      SystemConfig sys;
      sys.device.lines = args.get_uint("lines", 4097);
      // Characterization run: default (unscaled-down) endurance, so nothing
      // dies over a bench-sized instruction budget.
      pcm.emplace(sys);
      tier.emplace(tier_cfg, pcm_forward_sink(*pcm));
    }
    CmpSimulator sim(app, HierarchyConfig{}, seed, [&](const Writeback& wb) {
      const auto c = best.probe_size(wb.data);
      sizes.add(c ? static_cast<double>(*c) : 64.0);
      if (tier) (void)tier->put(wb.line, wb.data);
    });
    std::cerr << "[table3] " << app.name << "...\n";
    // Warm the hierarchy first (Section IV warms caches before measuring).
    sim.run(instructions / 2);
    sim.reset_stats();
    sizes = RunningStat{};
    sim.run(instructions);
    const double cr = sizes.count() ? sizes.mean() / 64.0 : 1.0;
    table.add_row({app.name, TablePrinter::fmt(sim.wpki(), 2), TablePrinter::fmt(app.wpki, 2),
                   TablePrinter::fmt(cr, 2), TablePrinter::fmt(app.table_cr, 2),
                   std::string(to_string(app.bucket)), TablePrinter::fmt(sim.l2_miss_rate(), 2)});
    if (tier) {
      tier->finish_timing();
      const FrontTierStats& ts = tier->stats();
      const double pct = ts.offered > 0 ? 100.0 * static_cast<double>(ts.absorbed()) /
                                              static_cast<double>(ts.offered)
                                        : 0.0;
      tier_table.add_row({app.name, TablePrinter::fmt(ts.offered),
                          TablePrinter::fmt(ts.absorbed()), TablePrinter::fmt(pct, 1),
                          TablePrinter::fmt(pcm->stats().writes),
                          TablePrinter::fmt(pcm->stats().flips_per_write.mean(), 1)});
    }
  }

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Table III — measured WPKI and CR vs paper");
    std::cout << "WPKI is measured on LLC write-backs of the synthetic core streams run\n"
                 "through the 16x32KB L1 + 4MB L2 hierarchy; CR on those write-backs'\n"
                 "payloads (write-back CR can differ slightly from Fig 3's access-stream "
                 "CR).\n";
    if (tier_cfg.enabled()) {
      const std::size_t tier_kb = tier_cfg.capacity_lines * kBlockBytes / 1024;
      tier_table.print(std::cout, "Front tier (" + std::to_string(tier_kb) + " KB, " +
                                      std::string(to_string(tier_cfg.policy)) +
                                      ") — hierarchy write-backs absorbed before PCM");
    }
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
