// Extension bench: FREE-p fine-grained remapping (HPCA'11, the paper's [10])
// evaluated standalone over a PcmArray region. Each logical line is written
// with random data until ECP-6 can no longer cover its stuck cells; with
// FREE-p the dead line chains to a spare (pointer embedded in the dead line)
// and service continues. Sweeps the spare fraction.
#include <iostream>
#include <memory>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/zipf.hpp"
#include "common/table.hpp"
#include "ecc/ecp.hpp"
#include "ecc/freep.hpp"

using namespace pcmsim;

namespace {

/// Writes random full-line data until the FIRST unserviceable write (data
/// loss) — the failure FREE-p exists to postpone; returns served writes.
/// Traffic is Zipf-skewed (theta 0.9): remapping pays off when hot lines die
/// long before cold ones (no inter-line wear-leveling here by design —
/// FREE-p is the alternative to it).
std::uint64_t run_region(double spare_fraction, std::uint64_t seed) {
  PcmDeviceConfig cfg;
  cfg.lines = 512;
  cfg.endurance_mean = 300;
  cfg.endurance_cov = 0.15;
  cfg.seed = seed;
  PcmArray array(cfg);
  EcpScheme ecp(6);

  const auto spares = static_cast<std::size_t>(static_cast<double>(cfg.lines) * spare_fraction);
  std::unique_ptr<FreePRemapper> remap;
  if (spares > 0) remap = std::make_unique<FreePRemapper>(array, spares);
  const std::size_t logical = cfg.lines - spares;

  Rng rng(seed * 31 + 7);
  ZipfSampler zipf(logical, 0.9);
  std::uint64_t writes = 0;
  Block data{};
  while (true) {
    const std::size_t line = zipf.sample(rng);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const std::size_t physical = remap ? remap->resolve(line) : line;
    (void)array.write_range(physical, 0, data, kBlockBits);
    ++writes;
    if (array.count_stuck(physical, 0, kBlockBits) > ecp.guaranteed_correctable()) {
      // Line exhausted ECP-6. FREE-p: chain to a spare; otherwise data loss.
      if (remap && remap->remap(line).has_value()) continue;
      return writes;
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "seed", "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("ablate_freep");
  const std::uint64_t seed = args.get_uint("seed", 3);

  // Each spare-fraction sweep point is an independent region run.
  const std::vector<double> fracs = {0.0, 0.05, 0.125, 0.25};
  std::mutex log_m;
  const auto writes = parallel_map(fracs, [&](const double frac) {
    {
      const std::lock_guard lk(log_m);
      std::cerr << "[freep] spare fraction " << frac << "...\n";
    }
    return run_region(frac, seed);
  });

  TablePrinter table({"spare_fraction", "writes_to_first_loss", "normalized"});
  const double base = static_cast<double>(writes[0]);  // fracs[0] == 0.0
  for (std::size_t i = 0; i < fracs.size(); ++i) {
    table.add_row({TablePrinter::fmt(fracs[i], 3), TablePrinter::fmt(writes[i]),
                   TablePrinter::fmt(static_cast<double>(writes[i]) / base, 2)});
  }
  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Extension — FREE-p remapping: writes until first data loss "
                           "vs spare fraction (raw full-line writes, ECP-6 per line)");
    std::cout << "FREE-p postpones the first uncorrectable error by chaining dead lines\n"
                 "to spares; the paper's Comp+WF postpones it with zero spare area by\n"
                 "shrinking the data instead of moving it.\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
