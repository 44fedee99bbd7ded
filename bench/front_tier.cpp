// Front-tier matrix bench: lifetime amplification of the content-aware DRAM
// front tier (tier/front_tier.hpp) across tier size x policy x app.
//
// Every cell runs one sampled-trace lifetime simulation to the 50% capacity
// death criterion with the tier in front of the PCM region, plus one
// filterless baseline per app. The figure of merit is lifetime amplification:
//
//   amplification = offered_writes(cell) / offered_writes(baseline)
//
// i.e. how much more write-back traffic the workload pushed through before
// PCM death because the tier absorbed part of the stream. A plain-LRU tier
// already amplifies (write coalescing); the content-aware policies must beat
// it at equal DRAM capacity to earn their keep — EXPERIMENTS.md records the
// measured matrix, and CI pins the digest at --threads 1 and 8 (cells run
// via parallel_map with per-cell deterministic seeds, so the matrix is
// byte-identical at any thread count).
//
//   ./build/bench/front_tier --tier-kbs 8,16,32 --policies lru,comp,silent
//   ./build/bench/front_tier --expect_checksum <pinned> --threads 8
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/lifetime.hpp"

using namespace pcmsim;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    out.push_back(csv.substr(pos, end - pos));
    pos = end + 1;
  }
  expects(!out.empty(), "csv list must name at least one entry");
  return out;
}

/// One run of the matrix: a (app, kb, policy) cell, or an app's filterless
/// baseline when kb == 0.
struct Job {
  const AppProfile* app = nullptr;
  std::size_t kb = 0;
  TierPolicy policy = TierPolicy::kLru;
};

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"apps", "cov", "endurance", "expect_checksum", "lines",
                                  "max_writes", "policies", "profile", "seed", "threads",
                                  "tier-kbs"});
  const std::size_t threads = set_threads_from_cli(args);
  if (args.get_bool("profile")) prof::set_enabled(true);

  LifetimeConfig base;
  base.system.device.lines = static_cast<std::uint64_t>(args.get_int("lines", 512));
  base.system.device.endurance_mean = args.get_double("endurance", 200);
  base.system.device.endurance_cov = args.get_double("cov", 0.15);
  base.max_writes = static_cast<std::uint64_t>(args.get_int("max_writes", 100'000'000));
  const std::uint64_t trace_seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  std::vector<std::size_t> kbs;
  for (const std::string& s : split_csv(args.get("tier-kbs", "8,16,32"))) {
    kbs.push_back(static_cast<std::size_t>(std::stoull(s)));
  }
  std::vector<TierPolicy> policies;
  for (const std::string& s : split_csv(args.get("policies", "lru,silent,comp"))) {
    policies.push_back(tier_policy_from_string(s));
  }
  std::vector<AppProfile> apps;
  for (const std::string& s : split_csv(args.get("apps", "gcc,milc,lbm"))) {
    apps.push_back(profile_by_name(s));
  }

  // Baselines first, then cells in app-major / size / policy order; the same
  // fixed order drives the JSON, the digest, and the amplification lookup.
  std::vector<Job> jobs;
  for (const AppProfile& app : apps) jobs.push_back({&app, 0, TierPolicy::kLru});
  for (const AppProfile& app : apps) {
    for (const std::size_t kb : kbs) {
      for (const TierPolicy policy : policies) jobs.push_back({&app, kb, policy});
    }
  }

  const ScopedTimer timer("");
  const auto results = parallel_map(jobs, [&](const Job& job) {
    LifetimeConfig lc = base;
    if (job.kb > 0) lc.tier = FrontTierConfig::for_kb(job.kb, job.policy);
    // The trace seed is shared across cells so every run of one app faces
    // the identical write-back stream; only the tier differs.
    return run_lifetime(*job.app, lc, trace_seed);
  });
  const double wall = timer.elapsed_seconds();

  // Digest: integer observables of every job in fixed order. Thread-count
  // independence of the matrix is exactly this value being stable.
  std::uint64_t h = 0x46524f4e54545231ull;  // "FRONTTR1"
  const auto fold = [&h](std::uint64_t v) { h = mix64(h, v); };
  for (const LifetimeResult& r : results) {
    fold(r.offered_writes);
    fold(r.writes_to_failure);
    fold(r.reached_failure ? 1 : 0);
    fold(r.tier.hits);
    fold(r.tier.silent_drops);
    fold(r.tier.inserts);
    fold(r.tier.evictions);
    fold(r.tier.dedup_shares);  // always zero; folded so the pinned digest holds
    fold(r.tier.fp_false_hits);
    fold(r.tier.words_forwarded);
    fold(r.tier.words_touched);
  }

  std::cout << "{\n"
            << "  \"threads\": " << threads << ",\n"
            << "  \"lines\": " << base.system.device.lines << ",\n"
            << "  \"endurance\": " << base.system.device.endurance_mean << ",\n"
            << "  \"seed\": " << trace_seed << ",\n"
            << "  \"wall_seconds\": " << wall << ",\n"
            << "  \"baselines\": [";
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const LifetimeResult& r = results[a];
    std::cout << (a ? "," : "") << "\n    {\"app\": \"" << apps[a].name
              << "\", \"offered\": " << r.offered_writes
              << ", \"writes_to_failure\": " << r.writes_to_failure
              << ", \"reached_failure\": " << (r.reached_failure ? "true" : "false")
              << "}";
  }
  std::cout << "\n  ],\n  \"cells\": [";
  bool first = true;
  for (std::size_t j = apps.size(); j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const LifetimeResult& r = results[j];
    // The app's baseline sits at the same index in the leading block.
    std::size_t a = 0;
    while (apps[a].name != job.app->name) ++a;
    const LifetimeResult& b = results[a];
    const double amp = b.offered_writes > 0
                           ? static_cast<double>(r.offered_writes) /
                                 static_cast<double>(b.offered_writes)
                           : 0.0;
    const double absorbed_pct =
        r.tier.offered > 0 ? 100.0 * static_cast<double>(r.tier.absorbed()) /
                                 static_cast<double>(r.tier.offered)
                           : 0.0;
    std::cout << (first ? "" : ",") << "\n    {\"app\": \"" << job.app->name
              << "\", \"tier_kb\": " << job.kb << ", \"policy\": \""
              << to_string(job.policy) << "\", \"offered\": " << r.offered_writes
              << ", \"pcm_writes\": " << r.writes_to_failure
              << ", \"absorbed\": " << r.tier.absorbed()
              << ", \"absorb_pct\": " << absorbed_pct
              << ", \"silent_drops\": " << r.tier.silent_drops
              << ", \"amplification\": " << amp
              << ", \"tier_lat_cycles\": " << r.tier_write_latency_cycles << "}";
    first = false;
  }
  std::cout << "\n  ],\n  \"checksum\": " << h << "\n}\n";

  if (prof::enabled()) {
    std::cout << "profile: ";
    prof::dump_json(std::cout, "");
    std::cout << "\n";
  }
  if (args.has("expect_checksum")) {
    const std::uint64_t expect = std::stoull(args.get("expect_checksum", "0"));
    if (expect != h) {
      std::cerr << "checksum mismatch: expected " << expect << ", got " << h
                << " — the front-tier matrix's observable behaviour changed\n";
      return 1;
    }
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
