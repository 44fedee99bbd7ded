// Extension bench: write energy. The paper argues compression's bit-flip
// changes translate directly into energy (Section III-A.1: more flips =>
// "increased energy consumption and decreased lifetime"). This bench
// quantifies programming energy per write-back (SET/RESET pulse model) for
// Baseline vs Comp+WF across the compressibility spectrum.
#include <iostream>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "ecc", "fast", "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("ablate_energy");
  const auto scale = ExperimentScale::from_flag(args.get_bool("fast") ? "fast" : "default");

  const std::vector<std::string> apps = {"cactusADM", "zeusmp", "milc", "gcc", "bzip2", "lbm"};

  // `--ecc <spec>` swaps the compressed lane's hard-error scheme (registry
  // grammar); the Baseline reference lane always runs ECP-6, so the saving
  // column stays comparable across schemes. Line-only schemes (SECDED) run
  // their lane in Baseline mode since they cannot sit behind a window.
  const std::string ecc_spec = args.get("ecc", "ecp6");
  const SystemMode wf_mode = scheme_traits(ecc_spec).baseline_only
                                 ? SystemMode::kBaseline
                                 : SystemMode::kCompWF;
  const std::vector<SystemMode> modes = {SystemMode::kBaseline, wf_mode};

  // Every (app, mode) run has fixed seeds and shares nothing — flatten the
  // grid into independent tasks.
  std::vector<double> energy(apps.size() * modes.size());
  std::mutex log_m;
  parallel_for(energy.size(), [&](std::size_t i) {
    const auto& name = apps[i / modes.size()];
    const auto mode = modes[i % modes.size()];
    LifetimeConfig lc;
    lc.system.mode = mode;
    if (i % modes.size() == 1) lc.system.ecc_spec = ecc_spec;
    lc.system.device.lines = scale.physical_lines;
    lc.system.device.endurance_mean = scale.endurance_mean;
    lc.system.device.endurance_cov = scale.endurance_cov;
    lc.system.device.seed = 18;
    lc.max_writes = 4'000'000'000ull;
    {
      const std::lock_guard lk(log_m);
      std::cerr << "[energy] " << name << " / " << to_string(mode) << "...\n";
    }
    energy[i] = run_lifetime(profile_by_name(name), lc, 100).energy_pj_per_write;
  });

  TablePrinter table({"app", "base_pJ/write", "wf_pJ/write", "saving%"});
  double sum = 0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double base = energy[a * modes.size()];
    const double wf = energy[a * modes.size() + 1];
    const double saving = 100.0 * (1.0 - wf / base);
    sum += saving;
    table.add_row({apps[a], TablePrinter::fmt(base, 0), TablePrinter::fmt(wf, 0),
                   TablePrinter::fmt(saving, 1)});
  }
  table.add_row({"Average", "-", "-", TablePrinter::fmt(sum / static_cast<double>(apps.size()), 1)});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Extension — programming energy per write-back "
                           "(SET 13.5 pJ / RESET 19.2 pJ per bit)");
    std::cout << "High-CR apps write far fewer bits compressed; low-CR apps can pay an\n"
                 "energy premium from repacking entropy — the energy face of Fig 5.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
