// Table IV: final lifetime in months, Baseline vs Comp+WF, via the write-rate
// model of Section IV (16-core 2.5 GHz CMP, per-app WPKI, 1e7-cycle cells,
// 4 GB DIMM). Paper averages: 22 months -> 79 months.
#include <iostream>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "fast", "ipc", "paper", "seed", "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("table4_months");
  auto scale = ExperimentScale::from_flag(
      args.get_bool("paper") ? "paper" : (args.get_bool("fast") ? "fast" : "default"));
  scale.seed = args.get_uint("seed", 1);
  MonthsModel model;
  model.ipc = args.get_double("ipc", 0.4);

  const auto apps = all_app_names();
  const auto cells =
      run_lifetime_matrix(apps, {SystemMode::kBaseline, SystemMode::kCompWF}, scale);

  TablePrinter table({"app", "Baseline_mo", "Comp+WF_mo", "paper_base", "paper_wf"});
  const std::vector<std::pair<double, double>> paper = {
      {15.6, 19.6}, {20.7, 28.8}, {13.4, 19.8}, {8.3, 13.5}, {32.1, 70.6},
      {18.7, 48.0}, {50.4, 131.7}, {8.6, 23.6}, {52.1, 150.2}, {51.0, 159.4},
      {13.2, 50.4}, {8.7, 36.2}, {11.7, 128.7}, {16.0, 184.0}, {9.2, 119.6}};
  double sum_b = 0;
  double sum_wf = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& base = matrix_cell(cells, apps[i], SystemMode::kBaseline);
    const auto& wf = matrix_cell(cells, apps[i], SystemMode::kCompWF);
    const double mb = lifetime_months(base.result, base.config, profile_by_name(apps[i]), model);
    const double mw = lifetime_months(wf.result, wf.config, profile_by_name(apps[i]), model);
    sum_b += mb;
    sum_wf += mw;
    table.add_row({apps[i], TablePrinter::fmt(mb, 1), TablePrinter::fmt(mw, 1),
                   TablePrinter::fmt(paper[i].first, 1), TablePrinter::fmt(paper[i].second, 1)});
  }
  table.add_row({"Average", TablePrinter::fmt(sum_b / 15.0, 1),
                 TablePrinter::fmt(sum_wf / 15.0, 1), "22.0", "79.0"});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Table IV — lifetime in months (Baseline vs Comp+WF)");
    std::cout << "Months are rescaled from simulated writes: x (1e7 / E_sim) endurance, "
                 "x (2^26 / lines_sim) region, / (WPKI x 16 cores x 2.5 GHz x IPC).\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
