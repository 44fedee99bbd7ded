// Lifetime study: compare the paper's four system configurations on one
// SPEC-2006-calibrated workload and report normalized lifetimes plus the
// Table-IV-style months conversion.
//
//   ./build/examples/lifetime_study --app milc [--endurance 600] [--lines 768]
//
// The write-back stream is selectable:
//   (default)          the batched SampledTraceSource, calibrated against
//                      Table III and Fig 6
//   --trace FILE       loop a captured v2 trace file (values re-versioned
//                      each pass so differential writes keep flipping cells)
//   --ecc SPEC         hard-error scheme by registry spec ("ecp6", "bch-t6",
//                      "coset-w4", ... — see ecc/registry.hpp); the scheme's
//                      traits prune the mode list to legal combinations
//
// `--profile` appends the write-path stage counters (trace-gen, compress,
// heuristic, place, program, ECC, gap-move) as JSON, attributing the run's
// time per stage — see common/profiler.hpp.
//
// For many tenants over the sharded engine, see bench/multi_tenant.
#include <iostream>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/profiler.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "trace/file_source.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"app", "cov", "ecc", "endurance", "lines", "profile",
                                  "threads", "tier-kb", "tier-policy", "trace"});
  set_threads_from_cli(args);
  if (args.get_bool("profile")) prof::set_enabled(true);
  const ScopedTimer timer("lifetime_study");
  const std::string app_name = args.get("app", "milc");
  const AppProfile& app = profile_by_name(app_name);

  LifetimeConfig lc;
  lc.system.device.lines = args.get_uint("lines", 768);
  lc.system.device.endurance_mean = args.get_double("endurance", 600);
  lc.system.device.endurance_cov = args.get_double("cov", 0.15);
  lc.max_writes = 4'000'000'000ull;

  // `--ecc <spec>` swaps the hard-error scheme (ECC registry grammar). The
  // scheme's traits prune the mode list to legal combinations: line-only
  // codes (SECDED) run Baseline alone; slack-consuming word codes (coset)
  // need compression and drop the Baseline row.
  const std::string ecc_spec = args.get("ecc", "ecp6");
  const SchemeTraits ecc_traits = scheme_traits(ecc_spec);
  lc.system.ecc_spec = ecc_spec;

  const std::string trace_path = args.get("trace", "");
  lc.tier = tier_config_from_cli(args);

  std::cout << "Workload: " << app.name << " (WPKI " << app.wpki << ", Table III CR "
            << app.table_cr << ", bucket " << to_string(app.bucket) << ")\n";
  if (!trace_path.empty()) {
    std::cout << "Source: looped trace replay of " << trace_path << "\n";
  }
  if (lc.tier.enabled()) {
    std::cout << "Front tier: " << lc.tier.capacity_lines << " lines ("
              << lc.tier.capacity_lines * kBlockBytes / 1024 << " KB), policy "
              << to_string(lc.tier.policy) << "\n";
  }
  if (ecc_spec != "ecp6") {
    std::cout << "ECC: " << ecc_spec << " (guarantees " << ecc_traits.guaranteed_correctable
              << " faults in " << ecc_traits.metadata_bits << " metadata bits)\n";
  }

  // The four system configurations are independent runs on the same seeds —
  // simulate them concurrently, then print in the paper's order. Each run
  // constructs its own source so the streams are identical across modes.
  std::vector<SystemMode> modes = {SystemMode::kBaseline, SystemMode::kComp,
                                   SystemMode::kCompW, SystemMode::kCompWF};
  if (ecc_traits.baseline_only) {
    modes = {SystemMode::kBaseline};
  } else if (ecc_traits.requires_compression) {
    modes = {SystemMode::kComp, SystemMode::kCompW, SystemMode::kCompWF};
  }
  std::mutex log_m;
  const auto results = parallel_map(modes, [&](const SystemMode mode) {
    {
      const std::lock_guard lk(log_m);
      std::cerr << "running " << to_string(mode) << "...\n";
    }
    LifetimeConfig run_lc = lc;
    run_lc.system.mode = mode;
    if (!trace_path.empty()) {
      LoopedFileTraceSource source(trace_path);
      return run_lifetime(source, run_lc);
    }
    // run_lifetime's default path constructs the sampled source folded onto
    // system.logical_lines() (device.lines - 1: StartGap keeps a spare slot).
    return run_lifetime(app, run_lc, 42);
  });

  TablePrinter table({"system", "writes_to_failure", "normalized", "months@1e7",
                      "faults_at_death", "flips/write"});
  const double base_writes = static_cast<double>(results[0].writes_to_failure);
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& r = results[i];
    table.add_row({std::string(to_string(modes[i])),
                   TablePrinter::fmt(r.writes_to_failure),
                   TablePrinter::fmt(static_cast<double>(r.writes_to_failure) / base_writes, 2),
                   TablePrinter::fmt(lifetime_months(r, lc, app), 1),
                   TablePrinter::fmt(r.mean_faults_at_death, 1),
                   TablePrinter::fmt(r.mean_flips_per_write, 1)});
  }
  table.print(std::cout, "Lifetime comparison — " + app.name +
                             (ecc_spec == "ecp6" ? "" : " (" + ecc_spec + ")"));
  if (lc.tier.enabled()) {
    // Lifetime amplification: offered write-backs the workload got through
    // before PCM death, relative to the PCM-serviced count — what the DRAM
    // tier buys on top of the compression/ECC machinery below it.
    TablePrinter tier_table({"system", "offered", "absorbed", "absorb_%",
                             "amplification", "tier_lat_cycles"});
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const auto& r = results[i];
      const double absorbed_pct =
          r.tier.offered > 0
              ? 100.0 * static_cast<double>(r.tier.absorbed()) /
                    static_cast<double>(r.tier.offered)
              : 0.0;
      const double amp = r.writes_to_failure > 0
                             ? static_cast<double>(r.offered_writes) /
                                   static_cast<double>(r.writes_to_failure)
                             : 0.0;
      tier_table.add_row({std::string(to_string(modes[i])),
                          TablePrinter::fmt(r.offered_writes),
                          TablePrinter::fmt(r.tier.absorbed()),
                          TablePrinter::fmt(absorbed_pct, 1), TablePrinter::fmt(amp, 2),
                          TablePrinter::fmt(r.tier_write_latency_cycles, 1)});
    }
    tier_table.print(std::cout, "Front tier — " + std::string(to_string(lc.tier.policy)));
  }
  std::cout << "Paper (Fig 10): Comp can shorten lifetime for volatile/low-CR apps;\n"
            << "Comp+W never hurts; Comp+WF is best and grows with compressibility.\n";
  if (prof::enabled()) {
    std::cout << "profile: ";
    prof::dump_json(std::cout, "");
    std::cout << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
