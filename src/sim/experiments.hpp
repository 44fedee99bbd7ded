// Shared experiment configuration for the bench harness: one place defines
// the simulation scale used by every lifetime-based figure so results are
// directly comparable across benches.
#pragma once

#include <string>
#include <vector>

#include "sim/lifetime.hpp"

namespace pcmsim {

class CliArgs;

/// Scale of a lifetime experiment. Normalized lifetimes are insensitive to
/// the scale (see bench/ablate_endurance_scale); it only trades wall-clock
/// time against statistical smoothness.
struct ExperimentScale {
  double endurance_mean = 400;
  std::uint64_t physical_lines = 512;
  double endurance_cov = 0.15;
  std::uint64_t seed = 1;

  /// ~4x faster, noisier — for smoke runs.
  [[nodiscard]] static ExperimentScale fast();
  /// The scale used for the committed EXPERIMENTS.md numbers.
  [[nodiscard]] static ExperimentScale paper();
  /// Resolve from --fast / --paper style flags.
  [[nodiscard]] static ExperimentScale from_flag(const std::string& which);
};

/// One (workload, mode) lifetime measurement.
struct LifetimeCell {
  std::string app;
  SystemMode mode;
  LifetimeResult result;
  LifetimeConfig config;  ///< as run (for months conversion)
};

/// Runs `modes` x `apps` lifetime simulations at the given scale, one cell
/// per thread-pool task. Every cell's RNG streams derive from
/// mix64(scale.seed, app_index, mode), so results are bit-identical at any
/// thread count. Progress lines go to stderr so table output stays clean.
/// `ecc_spec` is a registry scheme spec (ecc/registry.hpp).
[[nodiscard]] std::vector<LifetimeCell> run_lifetime_matrix(
    const std::vector<std::string>& apps, const std::vector<SystemMode>& modes,
    const ExperimentScale& scale, const std::string& ecc_spec = "ecp6");

/// Convenience: the result for (app, mode) in a matrix.
[[nodiscard]] const LifetimeCell& matrix_cell(const std::vector<LifetimeCell>& cells,
                                              const std::string& app, SystemMode mode);

/// Names of all 15 workloads in the paper's figure order.
[[nodiscard]] std::vector<std::string> all_app_names();

/// The front tier selected by `--tier-kb N --tier-policy lru|silent|comp`
/// (capacity in DRAM kilobytes). Disabled when --tier-kb is absent or 0, so
/// a tierless run is byte-identical to the simulator without the tier.
[[nodiscard]] FrontTierConfig tier_config_from_cli(const CliArgs& args);

}  // namespace pcmsim
