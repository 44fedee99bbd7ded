// Ablation: the Figure-8 write-decision heuristic. Sweeps Threshold1 and
// Threshold2, and compares against always-compress and heuristic-off, on the
// two size-volatile workloads the heuristic exists for (bzip2, gcc) plus a
// stable one (hmmer) where it should be neutral.
#include <iostream>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

namespace {

struct Variant {
  std::string name;
  bool enabled;
  std::uint8_t t1;
  std::uint8_t t2;
  bool update_always;
  std::uint8_t t3 = 0;
};

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "fast", "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("ablate_heuristic");
  const auto scale = ExperimentScale::from_flag(args.get_bool("fast") ? "fast" : "default");

  const std::vector<Variant> variants = {
      {"always-compress", false, 16, 8, true},
      {"t1=8,t2=8", true, 8, 8, true},
      {"t1=16,t2=8", true, 16, 8, true},  // the paper-default configuration
      {"t1=16,t2=4", true, 16, 4, true},
      {"t1=32,t2=8", true, 32, 8, true},
      {"t1=16,t2=8,fig8-literal", true, 16, 8, false},
      {"t1=16,t2=8,t3=52(ext)", true, 16, 8, true, 52},  // upper-cap extension
  };

  // One baseline reference plus all variants per app, flattened into
  // independent pool tasks (same seeds as the serial sweep).
  const std::vector<std::string> app_names = {"bzip2", "gcc", "hmmer"};
  const std::size_t per_app = 1 + variants.size();
  std::vector<LifetimeResult> results(app_names.size() * per_app);
  std::mutex log_m;
  parallel_for(results.size(), [&](std::size_t i) {
    const auto& app_name = app_names[i / per_app];
    const std::size_t vi = i % per_app;  // 0 = baseline, else variants[vi-1]
    LifetimeConfig lc;
    lc.system.mode = SystemMode::kBaseline;
    lc.system.device.lines = scale.physical_lines;
    lc.system.device.endurance_mean = scale.endurance_mean;
    lc.system.device.endurance_cov = scale.endurance_cov;
    lc.system.device.seed = 18;
    lc.max_writes = 4'000'000'000ull;
    if (vi > 0) {
      const Variant& v = variants[vi - 1];
      lc.system.mode = SystemMode::kCompWF;
      lc.system.heuristic.enabled = v.enabled;
      lc.system.heuristic.threshold1_bytes = v.t1;
      lc.system.heuristic.threshold2_bytes = v.t2;
      lc.system.heuristic.update_always = v.update_always;
      lc.system.heuristic.threshold3_bytes = v.t3;
    }
    {
      const std::lock_guard lk(log_m);
      std::cerr << "[heuristic] " << app_name << " "
                << (vi == 0 ? "baseline" : variants[vi - 1].name) << "...\n";
    }
    results[i] = run_lifetime(profile_by_name(app_name), lc, 100);
  });

  TablePrinter table({"app", "variant", "norm_lifetime", "comp_frac", "flips/write"});
  for (std::size_t a = 0; a < app_names.size(); ++a) {
    const double base_writes =
        static_cast<double>(results[a * per_app].writes_to_failure);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto& r = results[a * per_app + 1 + v];
      table.add_row({app_names[a], variants[v].name,
                     TablePrinter::fmt(static_cast<double>(r.writes_to_failure) / base_writes, 2),
                     TablePrinter::fmt(r.compressed_fraction, 2),
                     TablePrinter::fmt(r.mean_flips_per_write, 1)});
    }
  }

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Ablation — Figure-8 heuristic thresholds (Comp+WF vs Baseline)");
    std::cout << "Expected: the heuristic lowers flips/write on bzip2/gcc versus "
                 "always-compress and is neutral on hmmer.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
