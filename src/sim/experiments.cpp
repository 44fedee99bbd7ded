#include "sim/experiments.hpp"

#include <iostream>
#include <mutex>
#include <sstream>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace pcmsim {

ExperimentScale ExperimentScale::fast() {
  ExperimentScale s;
  s.endurance_mean = 300;
  s.physical_lines = 384;
  return s;
}

ExperimentScale ExperimentScale::paper() {
  ExperimentScale s;
  s.endurance_mean = 1000;
  s.physical_lines = 1024;
  return s;
}

ExperimentScale ExperimentScale::from_flag(const std::string& which) {
  if (which == "fast") return fast();
  if (which == "paper") return paper();
  return ExperimentScale{};
}

std::vector<LifetimeCell> run_lifetime_matrix(const std::vector<std::string>& apps,
                                              const std::vector<SystemMode>& modes,
                                              const ExperimentScale& scale,
                                              const std::string& ecc_spec) {
  struct CellSpec {
    std::string app;
    SystemMode mode;
    std::size_t app_index;
  };
  std::vector<CellSpec> specs;
  specs.reserve(apps.size() * modes.size());
  for (std::size_t ai = 0; ai < apps.size(); ++ai) {
    for (const auto mode : modes) specs.push_back(CellSpec{apps[ai], mode, ai});
  }

  // Each (app, mode) cell is an independent simulation with its own RNG
  // streams derived from mix64(seed, app_index, mode): no state is shared
  // across cells, so the matrix is bit-identical at any thread count (and a
  // cell's result does not depend on which other cells run alongside it).
  std::mutex log_m;
  auto cells = parallel_map(specs, [&](const CellSpec& spec) {
    const AppProfile& app = profile_by_name(spec.app);
    const std::uint64_t cell_seed =
        mix64(scale.seed, spec.app_index, static_cast<std::uint64_t>(spec.mode));
    LifetimeConfig lc;
    lc.system.mode = spec.mode;
    lc.system.ecc_spec = ecc_spec;
    lc.system.device.lines = scale.physical_lines;
    lc.system.device.endurance_mean = scale.endurance_mean;
    lc.system.device.endurance_cov = scale.endurance_cov;
    lc.system.device.seed = mix64(cell_seed, 17);
    lc.system.seed = cell_seed;
    lc.max_writes = 4'000'000'000ull;
    const auto result = run_lifetime(app, lc, mix64(cell_seed, 99));
    {
      std::ostringstream line;
      line << "[lifetime] " << spec.app << " / " << to_string(spec.mode) << ": "
           << result.writes_to_failure << " writes\n";
      const std::lock_guard lk(log_m);
      std::cerr << line.str();
    }
    return LifetimeCell{spec.app, spec.mode, result, lc};
  });
  return cells;
}

const LifetimeCell& matrix_cell(const std::vector<LifetimeCell>& cells, const std::string& app,
                                SystemMode mode) {
  for (const auto& c : cells) {
    if (c.app == app && c.mode == mode) return c;
  }
  expects(false, "missing matrix cell");
  return cells.front();
}

std::vector<std::string> all_app_names() {
  std::vector<std::string> names;
  for (const auto& app : spec2006_profiles()) names.push_back(app.name);
  return names;
}

FrontTierConfig tier_config_from_cli(const CliArgs& args) {
  // The policy is parsed even without a tier so a misspelt one still fails.
  const TierPolicy policy = tier_policy_from_string(args.get("tier-policy", "lru"));
  const auto tier_kb = static_cast<std::size_t>(args.get_uint("tier-kb", 0));
  if (tier_kb == 0) return {};
  return FrontTierConfig::for_kb(tier_kb, policy);
}

}  // namespace pcmsim
