// The encoding-laboratory matrix: every registered hard-error scheme crossed
// with three workloads spanning the compressibility spectrum. Quantifies
// Section III-A.4 (partition schemes beat ECP once compression collocates
// faults) and the registry extensions — parameterized BCH-t erasure codes and
// word-level coset coding that spends compression slack inside each word.
//
// No scheme object is constructed here: names, metadata costs, and legal
// modes all come from the registry's static SchemeSpecInfo table
// (ecc/registry.hpp), which the registry round-trip test pins against the
// real schemes.
//
// The matrix doubles as the one behaviour gate over every scheme's lifetime:
// a digest of each cell's writes_to_failure, faults_at_death and flips/write
// (fixed cell order; cells are seeded per task, so it is the same at any
// --threads) goes to stderr, and --expect_checksum fails the run on a
// mismatch. --lines/--endurance override the scale's region so the gate
// runs in seconds:
//
//   ./build/bench/ablate_ecc_scheme --lines 64 --endurance 40 --expect_checksum <pinned>
#include <bit>
#include <iostream>
#include <mutex>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "sim/experiments.hpp"

using namespace pcmsim;

namespace {

/// The mode a scheme's matrix lane runs in: line-only schemes that cannot sit
/// behind a sliding window (SECDED) stay in Baseline; everything else gets
/// the full Comp+WF stack (which also satisfies requires_compression).
SystemMode lane_mode(const SchemeTraits& traits) {
  return traits.baseline_only ? SystemMode::kBaseline : SystemMode::kCompWF;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "endurance", "expect_checksum", "fast", "lines",
                                  "threads"});
  set_threads_from_cli(args);
  const ScopedTimer timer("ablate_ecc_scheme");
  auto scale = ExperimentScale::from_flag(args.get_bool("fast") ? "fast" : "default");
  scale.physical_lines = args.get_uint("lines", scale.physical_lines);
  scale.endurance_mean = args.get_double("endurance", scale.endurance_mean);

  const std::vector<std::string> app_names = {"milc", "gcc", "lbm"};
  const auto schemes = registered_schemes();

  // Per app: one ECP-6 Baseline reference (the normalization anchor every
  // other figure uses) + one lane per registered scheme — flattened into
  // independent, identically-seeded tasks.
  const std::size_t per_app = 1 + schemes.size();
  std::vector<LifetimeResult> results(app_names.size() * per_app);
  std::mutex log_m;
  parallel_for(results.size(), [&](std::size_t i) {
    const auto& app_name = app_names[i / per_app];
    const std::size_t vi = i % per_app;  // 0 = reference, else schemes[vi-1]
    LifetimeConfig lc;
    lc.system.mode = SystemMode::kBaseline;
    lc.system.device.lines = scale.physical_lines;
    lc.system.device.endurance_mean = scale.endurance_mean;
    lc.system.device.endurance_cov = scale.endurance_cov;
    lc.system.device.seed = 18;
    lc.max_writes = 4'000'000'000ull;
    std::string what = "reference (ECP-6 Baseline)";
    if (vi > 0) {
      const auto& info = schemes[vi - 1];
      lc.system.mode = lane_mode(info.traits);
      lc.system.ecc_spec = std::string(info.spec);
      what = std::string(to_string(lc.system.mode)) + " / " + std::string(info.name);
    }
    {
      const std::lock_guard lk(log_m);
      std::cerr << "[ecc] " << app_name << " " << what << "...\n";
    }
    results[i] = run_lifetime(profile_by_name(app_name), lc, 100);
  });

  TablePrinter table({"app", "scheme", "mode", "meta_bits", "norm_lifetime",
                      "faults_at_death", "flips/write", "pJ/write"});
  for (std::size_t a = 0; a < app_names.size(); ++a) {
    const double base_writes =
        static_cast<double>(results[a * per_app].writes_to_failure);
    for (std::size_t e = 0; e < schemes.size(); ++e) {
      const auto& info = schemes[e];
      const auto& r = results[a * per_app + 1 + e];
      table.add_row({app_names[a], std::string(info.name),
                     std::string(to_string(lane_mode(info.traits))),
                     std::to_string(info.traits.metadata_bits),
                     TablePrinter::fmt(static_cast<double>(r.writes_to_failure) / base_writes, 2),
                     TablePrinter::fmt(r.mean_faults_at_death, 1),
                     TablePrinter::fmt(r.mean_flips_per_write, 1),
                     TablePrinter::fmt(r.energy_pj_per_write, 0)});
    }
  }

  std::uint64_t h = 0x4543434d41545831ull;  // "ECCMATX1"
  for (const LifetimeResult& r : results) {
    h = mix64(h, r.writes_to_failure);
    h = mix64(h, std::bit_cast<std::uint64_t>(r.mean_faults_at_death));
    h = mix64(h, std::bit_cast<std::uint64_t>(r.mean_flips_per_write));
  }
  std::cerr << "[ecc] checksum " << h << "\n";

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Encoding laboratory — lifetime/flip/energy by hard-error scheme "
                           "(normalized to ECP-6 Baseline)");
    std::cout << "Fig 9 ordering: Aegis >= SAFER >= ECP-6; BCH-t6 guarantees 12 erasures in\n"
                 "60 meta bits (vs ECP-6's 6 in 63); Coset-W4 spends compression slack\n"
                 "in-word instead of on a movable window.\n";
  }
  return check_expected_checksum(args, h, "a scheme's lifetime behaviour changed");
} catch (const std::exception& e) {
  return cli_error(e);
}
