// Figure 6: probability that two consecutive writes to the same block have
// different sizes after compression — the signal the Figure-8 heuristic uses
// to predict bit-flip-increasing writes.
#include <iostream>
#include <unordered_map>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "compression/best_of.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "seed", "writes"});
  const std::uint64_t writes = args.get_uint("writes", 60000);
  const std::uint64_t seed = args.get_uint("seed", 77);

  BestOfCompressor best;
  TablePrinter table({"app", "P(size_change)"});
  double sum = 0;
  for (const auto& app : spec2006_profiles()) {
    SampledTraceSource src(app, 1 << 12, seed);
    TraceCursor gen(src);
    std::unordered_map<LineAddr, std::size_t> last;
    std::uint64_t changed = 0;
    std::uint64_t pairs = 0;
    for (std::uint64_t i = 0; i < writes; ++i) {
      const auto ev = gen.next();
      const auto c = best.probe_size(ev.data);
      const std::size_t size = c ? *c : kBlockBytes;
      const auto it = last.find(ev.line);
      if (it != last.end()) {
        ++pairs;
        changed += it->second != size ? 1u : 0u;
        it->second = size;
      } else {
        last.emplace(ev.line, size);
      }
    }
    const double p = pairs ? static_cast<double>(changed) / static_cast<double>(pairs) : 0.0;
    sum += p;
    table.add_row({app.name, TablePrinter::fmt(p, 2)});
  }
  table.add_row({"Average", TablePrinter::fmt(sum / 15.0, 2)});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout,
                "Figure 6 — probability that consecutive writes to a block differ in "
                "compressed size");
    std::cout << "Paper: bzip2 and gcc churn the most; hmmer is nearly stable — that gap\n"
                 "explains why bzip2 sees increased flips while hmmer does not (Fig 7).\n";
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
