// Ablation: normalized lifetime (Comp+WF / Baseline) across endurance and
// region scales — the empirical justification for running lifetime studies
// with scaled-down endurance (DESIGN.md "Endurance scaling"). The ratio
// should stay roughly flat while absolute writes-to-failure scale linearly.
#include <iostream>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"app", "csv", "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("ablate_endurance_scale");
  const std::string app_name = args.get("app", "milc");
  const AppProfile& app = profile_by_name(app_name);

  struct Scale {
    double endurance;
    std::uint64_t lines;
  };
  const std::vector<Scale> scales = {{150, 256}, {300, 384}, {600, 768}, {1200, 768}};
  const std::vector<SystemMode> modes = {SystemMode::kBaseline, SystemMode::kCompWF};

  // Flatten the (scale, mode) grid into independent tasks (fixed seeds).
  std::vector<double> writes(scales.size() * modes.size());
  std::mutex log_m;
  parallel_for(writes.size(), [&](std::size_t i) {
    const auto& s = scales[i / modes.size()];
    const auto mode = modes[i % modes.size()];
    LifetimeConfig lc;
    lc.system.mode = mode;
    lc.system.device.lines = s.lines;
    lc.system.device.endurance_mean = s.endurance;
    lc.system.device.endurance_cov = 0.15;
    lc.system.device.seed = 18;
    lc.system.seed = 1;
    lc.max_writes = 4'000'000'000ull;
    {
      const std::lock_guard lk(log_m);
      std::cerr << "[scale] E=" << s.endurance << " L=" << s.lines << " "
                << to_string(mode) << "...\n";
    }
    writes[i] = static_cast<double>(run_lifetime(app, lc, 100).writes_to_failure);
  });

  TablePrinter table({"endurance", "lines", "base_writes", "wf_writes", "wf_norm"});
  for (std::size_t s = 0; s < scales.size(); ++s) {
    const double base = writes[s * modes.size()];
    const double wf = writes[s * modes.size() + 1];
    table.add_row({TablePrinter::fmt(scales[s].endurance, 0), TablePrinter::fmt(scales[s].lines),
                   TablePrinter::fmt(base, 0), TablePrinter::fmt(wf, 0),
                   TablePrinter::fmt(wf / base, 2)});
  }

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Ablation — endurance/region scale invariance (" + app_name + ")");
    std::cout << "Normalized lifetime should be stable across scales; absolute writes "
                 "scale with endurance x lines.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
