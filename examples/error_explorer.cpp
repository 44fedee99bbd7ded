// Error-tolerance explorer: inject random stuck-at faults into one 512-bit
// line and watch how much data each hard-error scheme can still store — with
// and without the paper's sliding compression window.
//
//   ./build/examples/error_explorer [--faults 40] [--seed 9]
#include <algorithm>
#include <iostream>
#include <memory>
#include <numeric>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "ecc/aegis.hpp"
#include "ecc/ecp.hpp"
#include "ecc/safer.hpp"
#include "sim/monte_carlo.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"faults", "seed"});
  const auto nfaults = static_cast<std::size_t>(args.get_uint("faults", 40));
  Rng rng(args.get_uint("seed", 9));

  // Inject `nfaults` stuck cells at uniform positions.
  std::vector<std::uint16_t> cells(kBlockBits);
  std::iota(cells.begin(), cells.end(), std::uint16_t{0});
  std::vector<std::uint16_t> positions;
  for (std::size_t i = 0; i < nfaults; ++i) {
    const std::size_t j = i + rng.next_below(kBlockBits - i);
    std::swap(cells[i], cells[j]);
    positions.push_back(cells[i]);
  }
  std::sort(positions.begin(), positions.end());

  std::cout << "Injected " << nfaults << " stuck cells into a 512-bit line at bytes:";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i % 16 == 0) std::cout << "\n  ";
    std::cout << positions[i] / 8 << "." << positions[i] % 8 << " ";
  }
  std::cout << "\n";

  std::vector<std::unique_ptr<HardErrorScheme>> schemes;
  schemes.push_back(std::make_unique<EcpScheme>(6));
  schemes.push_back(std::make_unique<SaferScheme>(32));
  schemes.push_back(std::make_unique<SaferScheme>(32, SaferScheme::Strategy::kExhaustive));
  schemes.push_back(std::make_unique<AegisScheme>(17, 31));

  TablePrinter table({"scheme", "guaranteed", "whole_line_ok", "max_window_B"});
  for (const auto& s : schemes) {
    std::vector<FaultCell> faults;
    for (auto p : positions) faults.push_back({p, false});
    const bool whole = s->can_tolerate(faults, kBlockBits);

    // Largest data size that still fits SOMEWHERE in the line (the paper's
    // sliding-window tolerance): binary search over window sizes.
    std::size_t lo = 0;
    std::size_t hi = kBlockBytes;
    while (lo < hi) {
      const std::size_t mid = (lo + hi + 1) / 2;
      if (mc_trial_survives(*s, mid, positions, /*wrap=*/true)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    table.add_row({std::string(s->name()), TablePrinter::fmt(s->guaranteed_correctable()),
                   whole ? "yes" : "no", TablePrinter::fmt(lo)});
  }
  table.print(std::cout, "What still fits in this worn line?");
  std::cout << "Uncompressed data needs whole_line_ok; compressed data only needs a\n"
            << "window of its own size — that is why compression multiplies the\n"
            << "tolerable fault count (paper Fig 9/12).\n";
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
