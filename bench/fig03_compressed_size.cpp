// Figure 3 / Table III: average compressed write-back size per application
// under BDI, FPC, and BEST (smaller of the two), plus the measured
// compression ratio against the paper's Table III target.
#include <iostream>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "compression/best_of.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "seed", "writes"});
  const std::uint64_t writes = args.get_uint("writes", 20000);
  const std::uint64_t seed = args.get_uint("seed", 1234);

  BestOfCompressor best;
  TablePrinter table({"app", "BDI_B", "FPC_B", "BEST_B", "CR_meas", "CR_paper"});
  RunningStat overall;
  for (const auto& app : spec2006_profiles()) {
    SampledTraceSource src(app, 1 << 14, seed);
    TraceCursor gen(src);
    RunningStat bdi_size;
    RunningStat fpc_size;
    RunningStat best_size;
    for (std::uint64_t i = 0; i < writes; ++i) {
      const auto ev = gen.next();
      const auto [b, f] = best.probe_both(ev.data);  // one fused scan, both sizes
      bdi_size.add(b ? static_cast<double>(*b) : 64.0);
      fpc_size.add(f ? static_cast<double>(*f) : 64.0);
      const double bb = b ? static_cast<double>(*b) : 64.0;
      const double ff = f ? static_cast<double>(*f) : 64.0;
      best_size.add(std::min(bb, ff));
    }
    overall.add(best_size.mean() / 64.0);
    table.add_row({app.name, TablePrinter::fmt(bdi_size.mean(), 1),
                   TablePrinter::fmt(fpc_size.mean(), 1),
                   TablePrinter::fmt(best_size.mean(), 1),
                   TablePrinter::fmt(best_size.mean() / 64.0, 2),
                   TablePrinter::fmt(app.table_cr, 2)});
  }
  table.add_row({"Average", "-", "-", TablePrinter::fmt(overall.mean() * 64.0, 1),
                 TablePrinter::fmt(overall.mean(), 2), "0.43"});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Figure 3 — average compressed data size (bytes) for BDI, FPC and BEST");
    std::cout << "Paper: BEST average CR = 0.43; zeusmp/cactusADM smallest, lbm/leslie3d "
                 "largest.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
