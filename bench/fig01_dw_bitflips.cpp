// Figure 1: number of bit-level updates (post-differential-write flips) for
// consecutive writes to one randomly chosen hot 64-byte block of gobmk.
// The paper's point: under DW the update pattern is random in both position
// and magnitude, which is what makes intra-line wear-leveling hard without
// compression.
#include <iostream>
#include <map>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"app", "csv", "seed", "writes"});
  const std::string app_name = args.get("app", "gobmk");
  const auto samples = static_cast<std::size_t>(args.get_uint("writes", 64));
  const std::uint64_t seed = args.get_uint("seed", 7);

  const AppProfile& app = profile_by_name(app_name);
  SampledTraceSource src(app, 1 << 12, seed);
  TraceCursor gen(src);

  // Find the hottest block over a warmup window, then trace its rewrites.
  std::map<LineAddr, int> heat;
  for (int i = 0; i < 20000; ++i) ++heat[gen.next().line];
  LineAddr hot = heat.begin()->first;
  for (const auto& [line, count] : heat) {
    if (count > heat[hot]) hot = line;
  }

  TablePrinter table({"write#", "bit_flips", "flips_low256", "flips_high256"});
  RunningStat stat;
  Block stored = src.current_value(hot);
  std::size_t seen = 0;
  while (seen < samples) {
    const auto ev = gen.next();
    if (ev.line != hot) continue;
    const std::size_t flips = hamming_distance(stored, ev.data);
    const std::size_t low = hamming_distance(
        std::span<const std::uint8_t>(stored.data(), 32),
        std::span<const std::uint8_t>(ev.data.data(), 32));
    table.add_row({TablePrinter::fmt(static_cast<std::uint64_t>(seen)),
                   TablePrinter::fmt(static_cast<std::uint64_t>(flips)),
                   TablePrinter::fmt(static_cast<std::uint64_t>(low)),
                   TablePrinter::fmt(static_cast<std::uint64_t>(flips - low))});
    stat.add(static_cast<double>(flips));
    stored = ev.data;
    ++seen;
  }

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Figure 1 — bit flips per consecutive DW write to one hot " +
                               app_name + " block (line " + std::to_string(hot) + ")");
    std::cout << "mean=" << stat.mean() << " min=" << stat.min() << " max=" << stat.max()
              << " stddev=" << stat.stddev()
              << "  (paper: random scatter across the 0..512 range)\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
