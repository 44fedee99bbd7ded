// Ablation: intra-line wear-leveling rotation period. Too-frequent rotation
// inflates flips (each window move re-writes the whole window over stale
// bits); too-rare rotation leaves the line's wear concentrated. This is the
// tradeoff behind core/system.cpp's auto threshold (2x endurance).
#include <iostream>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"app", "csv", "fast", "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("ablate_intraline");
  const std::string app_name = args.get("app", "milc");
  const auto scale = ExperimentScale::from_flag(args.get_bool("fast") ? "fast" : "default");
  const AppProfile& app = profile_by_name(app_name);

  LifetimeConfig base;
  base.system.mode = SystemMode::kBaseline;
  base.system.device.lines = scale.physical_lines;
  base.system.device.endurance_mean = scale.endurance_mean;
  base.system.device.endurance_cov = scale.endurance_cov;
  base.system.device.seed = 18;
  base.max_writes = 4'000'000'000ull;

  const auto e = static_cast<std::uint64_t>(scale.endurance_mean);
  std::vector<std::uint64_t> thresholds;
  for (const std::uint64_t t : {e / 100, e / 10, e, 5 * e, 20 * e, 100 * e, std::uint64_t{1} << 40}) {
    thresholds.push_back(std::max<std::uint64_t>(1, t));
  }

  // The baseline (index 0) and each rotation-threshold variant are
  // independent runs with identical seeds — run them as pool tasks.
  std::vector<LifetimeResult> results(1 + thresholds.size());
  std::mutex log_m;
  parallel_for(results.size(), [&](std::size_t i) {
    LifetimeConfig lc = base;
    if (i > 0) {
      lc.system.mode = SystemMode::kCompW;
      lc.system.rotation_threshold = thresholds[i - 1];
    }
    {
      const std::lock_guard lk(log_m);
      if (i == 0) {
        std::cerr << "[intraline] baseline...\n";
      } else {
        std::cerr << "[intraline] threshold=" << thresholds[i - 1] << "...\n";
      }
    }
    results[i] = run_lifetime(app, lc, 100);
  });

  const double base_writes = static_cast<double>(results[0].writes_to_failure);
  TablePrinter table({"rotation_threshold", "norm_lifetime", "flips/write"});
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const auto& r = results[1 + i];
    table.add_row({TablePrinter::fmt(thresholds[i]),
                   TablePrinter::fmt(static_cast<double>(r.writes_to_failure) / base_writes, 2),
                   TablePrinter::fmt(r.mean_flips_per_write, 1)});
  }

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Ablation — Comp+W lifetime vs rotation period (" + app_name + ")");
    std::cout << "The last row (2^40) disables rotation in practice; the best period sits "
                 "between the flip-overhead and no-leveling extremes.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
