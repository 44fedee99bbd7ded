// Figure 9: Monte-Carlo failure probability of a single 512-bit line as a
// function of injected stuck-at faults (uniform positions, modeling perfect
// intra-line wear-leveling) and compressed data size, for ECP-6, SAFER-32 and
// Aegis 17x31. One sub-table per scheme; columns are data sizes, rows are
// fault counts. The paper runs 100k injections per point (--trials).
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "ecc/aegis.hpp"
#include "ecc/ecp.hpp"
#include "ecc/safer.hpp"
#include "sim/monte_carlo.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "no-wrap", "seed", "step", "threads", "trials"});
  set_threads_from_cli(args);
  const ScopedTimer timer("fig09_montecarlo");
  MonteCarloConfig mc;
  mc.trials = static_cast<std::size_t>(args.get_uint("trials", 20000));
  mc.wrap_windows = !args.get_bool("no-wrap");
  const std::uint64_t seed = args.get_uint("seed", 3);
  const auto step = static_cast<std::size_t>(args.get_uint("step", 8));
  const bool csv = args.get_bool("csv");

  const std::vector<std::size_t> sizes = {1, 8, 16, 20, 24, 32, 34, 36, 40, 64};
  std::vector<std::unique_ptr<HardErrorScheme>> schemes;
  schemes.push_back(std::make_unique<EcpScheme>(6));
  schemes.push_back(std::make_unique<SaferScheme>(32));
  schemes.push_back(std::make_unique<AegisScheme>(17, 31));

  for (const auto& scheme : schemes) {
    std::vector<std::string> header = {"errors"};
    for (auto s : sizes) header.push_back(std::to_string(s) + "B");
    TablePrinter table(header);

    // Every (fault count, data size) grid point is an independent MC run with
    // its own seed, so the grid parallelizes without changing any value.
    const std::size_t nrows = 128 / step;
    std::vector<double> grid(nrows * sizes.size());
    parallel_for(grid.size(), [&](std::size_t idx) {
      const std::size_t n = step * (idx / sizes.size() + 1);
      const std::size_t si = idx % sizes.size();
      Rng rng(seed + n * 131 + si);
      grid[idx] = mc_failure_probability(*scheme, sizes[si], n, mc, rng);
    });

    std::vector<std::size_t> half_point(sizes.size(), 0);  // first N with Pfail >= 0.5
    for (std::size_t r = 0; r < nrows; ++r) {
      const std::size_t n = step * (r + 1);
      std::vector<std::string> row = {std::to_string(n)};
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        const double p = grid[r * sizes.size() + si];
        if (half_point[si] == 0 && p >= 0.5) half_point[si] = n;
        row.push_back(TablePrinter::fmt(p, 3));
      }
      table.add_row(std::move(row));
    }
    if (csv) {
      std::cout << scheme->name() << "\n";
      table.print_csv(std::cout);
    } else {
      table.print(std::cout, "Figure 9 (" + std::string(scheme->name()) +
                                 ") — failure probability vs injected faults, by data size");
      std::cout << "faults at Pfail=0.5:";
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        std::cout << "  " << sizes[si] << "B:" << (half_point[si] ? std::to_string(half_point[si]) : ">128");
      }
      std::cout << "\n";
    }
  }
  if (!csv) {
    std::cout << "\nPaper reference (32B data, Pfail=0.5): ECP-6 ~18 faults, SAFER ~38, "
                 "Aegis ~41.\nSmaller data tolerates more faults under every scheme; "
                 "Aegis >= SAFER >= ECP.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
