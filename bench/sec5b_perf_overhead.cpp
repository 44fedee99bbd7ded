// Section V-B: performance overhead of compression. Decompression (1 cycle
// BDI / 5 cycles FPC at 2.5 GHz) sits on the read critical path; compression
// itself hides behind the 32-entry write queue. The paper reports up to ~2%
// higher read latency and <0.3% overall slowdown.
//
// Method: per app, feed the controller a request stream whose rates derive
// from the app's WPKI (writes) and an LLC-miss read/write ratio; reads to
// compressed lines (fraction + scheme mix measured from the workload) carry
// the winner's decompression latency. Compare against the same stream with
// decompression disabled.
#include <iostream>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "compression/best_of.hpp"
#include "controller/controller.hpp"
#include "core/address_map.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

namespace {

/// Region the synthetic request stream addresses; banks are derived from the
/// drawn line through the shared AddressMap (the same mapping the sharded
/// engine executes on), not an independent uniform draw.
constexpr std::uint64_t kStreamRegionLines = 1 << 12;

struct Mix {
  double compressed_fraction = 0;  ///< of lines, weighted by write traffic
  double bdi_share = 0;            ///< of compressed lines
};

Mix measure_mix(const AppProfile& app, std::uint64_t seed) {
  BestOfCompressor best;
  SampledTraceSource src(app, kStreamRegionLines, seed);
  TraceCursor gen(src);
  std::uint64_t comp = 0;
  std::uint64_t bdi = 0;
  std::uint64_t total = 20000;
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto ev = gen.next();
    if (const auto c = best.probe(ev.data)) {
      ++comp;
      bdi += c->scheme == CompressionScheme::kBdi ? 1u : 0u;
    }
  }
  Mix m;
  m.compressed_fraction = static_cast<double>(comp) / static_cast<double>(total);
  m.bdi_share = comp ? static_cast<double>(bdi) / static_cast<double>(comp) : 0.0;
  return m;
}

double run_stream(const AppProfile& app, const Mix& mix, bool with_decompression,
                  std::uint64_t seed, std::uint64_t cycles) {
  ControllerConfig cfg;
  MemoryController mc(cfg);
  Rng rng(seed);
  const AddressMap map;  // 2 channels x 4 banks (Table II)
  expects(map.shards() == cfg.banks, "controller banks must match the address map");

  // Rates per controller cycle (400 MHz) from the CMP's instruction rate
  // (16 cores x 2.5 GHz x IPC 0.4) and the app's WPKI; reads (LLC misses)
  // arrive at ~2x the write-back rate.
  const double instr_per_cycle = 16.0 * 2.5e9 * 0.4 / 400e6;
  double writes_per_cycle = app.wpki / 1000.0 * instr_per_cycle;
  double reads_per_cycle = 2.0 * writes_per_cycle;
  // Closed-loop throttling: stalled cores cannot over-drive the memory. Cap
  // bank utilization at 60% (an open-loop stream past saturation would only
  // measure queue caps, not the decompression effect).
  const double demand = reads_per_cycle * (cfg.timing.t_rdc + cfg.timing.t_cl + 7.0) +
                        writes_per_cycle * (cfg.timing.t_wl + cfg.timing.t_rp + 4.0);
  const double util = demand / cfg.banks;
  if (util > 0.6) {
    reads_per_cycle *= 0.6 / util;
    writes_per_cycle *= 0.6 / util;
  }

  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    if (rng.next_bool(reads_per_cycle)) {
      MemRequest r;
      r.arrival_cycle = cycle;
      r.is_read = true;
      r.bank = map.shard_of(rng.next_below(kStreamRegionLines));
      if (with_decompression && rng.next_bool(mix.compressed_fraction)) {
        r.decompression_cpu_cycles = rng.next_bool(mix.bdi_share) ? 1 : 5;
      }
      mc.submit(r);
    }
    if (rng.next_bool(writes_per_cycle)) {
      MemRequest w;
      w.arrival_cycle = cycle;
      w.is_read = false;
      w.bank = map.shard_of(rng.next_below(kStreamRegionLines));
      mc.submit(w);
    }
  }
  mc.finish();
  return mc.read_latency().mean();
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "cycles", "seed", "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("sec5b_perf_overhead");
  const auto cycles = args.get_uint("cycles", 2000000);
  const std::uint64_t seed = args.get_uint("seed", 11);

  // Each app's measurement is self-contained (own generator/controller/RNG
  // streams from fixed seeds), so the 15 apps run as independent tasks.
  struct Row {
    double base = 0;
    double comp = 0;
  };
  const std::vector<AppProfile> profiles = spec2006_profiles();
  std::mutex log_m;
  const auto rows = parallel_map(profiles, [&](const AppProfile& app) {
    {
      const std::lock_guard lk(log_m);
      std::cerr << "[sec5b] " << app.name << "...\n";
    }
    const Mix mix = measure_mix(app, seed);
    Row r;
    r.base = run_stream(app, mix, false, seed, cycles);
    r.comp = run_stream(app, mix, true, seed, cycles);
    return r;
  });

  TablePrinter table({"app", "read_lat_base", "read_lat_comp", "lat_increase%", "slowdown%"});
  double lat_sum = 0;
  double slow_sum = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const AppProfile& app = profiles[i];
    const double base = rows[i].base;
    const double comp = rows[i].comp;
    const double lat_pct = 100.0 * (comp - base) / base;

    // CPI model: base CPI 1/0.4 = 2.5; memory reads (2x WPKI) each cost the
    // average read latency in CPU cycles (2.5 GHz / 400 MHz = 6.25x).
    const double reads_per_ki = 2.0 * app.wpki;
    const double cpu_per_mem_cycle = 6.25;
    const double base_cpi = 2.5 + reads_per_ki / 1000.0 * base * cpu_per_mem_cycle;
    const double comp_cpi = 2.5 + reads_per_ki / 1000.0 * comp * cpu_per_mem_cycle;
    const double slowdown = 100.0 * (comp_cpi - base_cpi) / base_cpi;

    lat_sum += lat_pct;
    slow_sum += slowdown;
    table.add_row({app.name, TablePrinter::fmt(base, 1), TablePrinter::fmt(comp, 1),
                   TablePrinter::fmt(lat_pct, 2), TablePrinter::fmt(slowdown, 3)});
  }
  table.add_row({"Average", "-", "-", TablePrinter::fmt(lat_sum / 15.0, 2),
                 TablePrinter::fmt(slow_sum / 15.0, 3)});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Section V-B — read-latency and performance overhead of "
                           "decompression");
    std::cout << "Paper: reads to compressed blocks delayed up to ~2% on average; overall "
                 "slowdown < 0.3%.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
