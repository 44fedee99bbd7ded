// Write-path microbenchmark: times the steady-state stages of one serviced
// write-back in isolation — best-of(BDI,FPC) size planning (the fused-scan
// probe the write path runs per write), legacy full compression, Flip-N-Write
// encoding — and the full PcmSystem::write loop, emitting machine-readable
// JSON (see BENCH_writepath.json for committed before/after numbers).
//
// The system.write stage runs a wear-free steady state: the region is large
// and endurance high relative to the measured write count, so the loop
// exercises exactly the path every lifetime/MC experiment spends its time in
// (compress -> heuristic -> place -> differential write), not fault handling.
// A separate aged-array stage measures window placement at 0/8/32 stuck
// cells per line, the regime the fault-state caches accelerate, and the
// system.write_worn stage times full writes on a small low-endurance region
// aged until a quarter of its lines are dead — the lifetime phase where
// lines hold near-dead cells and writes birth faults. The worn stage stays
// out of the work checksum and runs with the stage profiler off, so both
// keep describing the wear-free steady state.
//
// `--profile` adds the per-stage cycle counters (common/profiler.hpp) to the
// JSON; `--expect_checksum N` exits non-zero when the deterministic work
// checksum deviates — CI runs this to catch perf refactors that silently
// change behaviour (see bench/CMakeLists.txt).
#include <chrono>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "compression/best_of.hpp"
#include "core/system.hpp"
#include "pcm/flip_n_write.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point t0, Clock::time_point t1, std::size_t ops) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return static_cast<double>(ns) / static_cast<double>(ops);
}

/// Placement cost on lines aged to `faults_per_line` stuck cells: kAnywhere
/// find() of a 32-byte window (the median compressed size) over every line.
double place_ns_per_find(std::size_t faults_per_line, std::uint64_t seed) {
  PcmDeviceConfig cfg;
  cfg.lines = 256;
  cfg.seed = seed;
  PcmArray array(cfg);
  Rng rng(mix64(seed, faults_per_line));
  for (std::size_t line = 0; line < cfg.lines; ++line) {
    for (std::size_t f = 0; f < faults_per_line; ++f) {
      array.inject_fault(line, rng.next_below(kBlockBits), rng.next_bool(0.5));
    }
  }
  const auto scheme = make_scheme("ecp6");
  const WindowPlacer placer(*scheme);
  constexpr std::size_t kIters = 200;
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t it = 0; it < kIters; ++it) {
    for (std::size_t line = 0; line < cfg.lines; ++line) {
      const auto preferred = static_cast<std::uint8_t>((line * 7 + it) % kBlockBytes);
      const auto start = placer.find(array, line, 32, preferred, SlidePolicy::kAnywhere);
      sink += start ? *start : kBlockBytes;
    }
  }
  const auto t1 = Clock::now();
  const double ns = ns_per_op(t0, t1, kIters * cfg.lines);
  return sink == 0 ? ns + 1e-9 : ns;  // sink defeats dead-code elimination
}

/// Timed system.write on a worn region: 64 logical lines at endurance 1000
/// are fed the corpus (cycled, line mod 64) until a quarter of them are dead
/// or the aging budget runs out, then up to `budget` further writes are
/// timed, stopping early should the region fail.
struct WornStage {
  double ns_per_write = 0;
  std::size_t timed_writes = 0;
  double dead_fraction = 0;  ///< when timing started
};

WornStage worn_write_ns(const std::vector<WritebackEvent>& events, std::uint64_t seed,
                        std::size_t budget) {
  WornStage out;
  if (events.empty()) return out;
  constexpr std::uint64_t kLines = 64;
  SystemConfig cfg;
  cfg.device.lines = kLines + 1;  // + gap line
  cfg.device.endurance_mean = 1000;
  cfg.device.seed = seed;
  cfg.seed = seed;
  PcmSystem system(cfg);
  std::size_t next = 0;
  auto write_next = [&] {
    const auto& ev = events[next];
    next = next + 1 == events.size() ? 0 : next + 1;
    return system.write(ev.line % kLines, ev.data).flips;
  };
  // The budget bounds aging for corpora that cannot wear the region down
  // (one repeated event programs nothing after its first write).
  std::size_t sink = 0;
  for (std::size_t aged = 0; system.dead_fraction() < 0.25 && aged < 4'000'000; ++aged) {
    sink += write_next();
  }
  out.dead_fraction = system.dead_fraction();
  const auto t0 = Clock::now();
  while (out.timed_writes < budget && !system.failed()) {
    sink += write_next();
    ++out.timed_writes;
  }
  const auto t1 = Clock::now();
  out.ns_per_write = out.timed_writes == 0 ? 0 : ns_per_op(t0, t1, out.timed_writes);
  if (sink == 0) out.ns_per_write += 1e-9;  // sink defeats dead-code elimination
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"expect_checksum", "lines", "profile", "seed", "writes"});
  const auto writes = static_cast<std::size_t>(args.get_uint("writes", 200000));
  const auto lines = args.get_uint("lines", 4096);
  const std::uint64_t seed = args.get_uint("seed", 42);
  if (args.get_bool("profile")) prof::set_enabled(true);

  // Pre-generate a mixed corpus so trace generation stays out of every timed
  // loop. Three apps spanning the compressibility spectrum (Table III),
  // batch-generated per app and interleaved i % 3 from the default sampled
  // source — the per-source subsequences are independent streams, so the
  // corpus is independent of batching. The work checksum pins this exact
  // corpus (it was re-pinned when the default source flipped to sampled).
  std::vector<WritebackEvent> events(writes);
  {
    SampledTraceSource gcc(profile_by_name("gcc"), lines, seed);
    SampledTraceSource milc(profile_by_name("milc"), lines, seed + 1);
    SampledTraceSource lbm(profile_by_name("lbm"), lines, seed + 2);
    SampledTraceSource* gens[] = {&gcc, &milc, &lbm};
    std::vector<WritebackEvent> lane;
    for (std::size_t g = 0; g < 3; ++g) {
      const std::size_t count = writes / 3 + (g < writes % 3 ? 1 : 0);
      lane.resize(count);
      (void)gens[g]->next_batch(lane);
      for (std::size_t i = 0; i < count; ++i) events[g + i * 3] = lane[i];
    }
  }

  // --- Stage 1: best-of compression --------------------------------------
  // 1a: the plan (probe-only) pass the write path now runs on every write;
  // 1b: legacy full materialization of the winner, kept for before/after
  // comparability. Their byte totals must agree (checked below), so the work
  // checksum is identical to the pre-plan pipeline's.
  BestOfCompressor best;
  std::size_t comp_bytes = 0;  // sink: defeats dead-code elimination
  const auto p0 = Clock::now();
  for (const auto& ev : events) {
    const auto p = best.plan(ev.data);
    comp_bytes += p ? p->size_bytes() : kBlockBytes;
  }
  const auto p1 = Clock::now();

  std::size_t legacy_bytes = 0;
  const auto c0 = Clock::now();
  for (const auto& ev : events) {
    const auto c = best.compress(ev.data);
    legacy_bytes += c ? c->size_bytes() : kBlockBytes;
  }
  const auto c1 = Clock::now();
  if (legacy_bytes != comp_bytes) {
    std::cerr << "plan/compress size divergence: plan " << comp_bytes << " vs compress "
              << legacy_bytes << "\n";
    return 1;
  }

  // --- Stage 2: Flip-N-Write encode (fused flip count) --------------------
  FlipNWriteCodec codec(64);
  Block stored{};
  std::uint64_t flags = 0;
  std::size_t fnw_flips = 0;
  const auto f0 = Clock::now();
  for (const auto& ev : events) {
    fnw_flips += codec.encoded_flips(ev.data, stored, flags);
    const auto enc = codec.encode(ev.data, stored, flags);
    stored = enc.payload;
    flags = enc.invert_mask;
  }
  const auto f1 = Clock::now();

  // --- Stage 3: full steady-state system.write ----------------------------
  SystemConfig cfg;
  cfg.device.lines = lines + 1;  // + gap line
  cfg.device.endurance_mean = 1e4;
  cfg.device.seed = seed;
  cfg.seed = seed;
  PcmSystem system(cfg);
  // Warm-up: every line written at least once so steady state has no
  // first-touch effects (metadata init, trace map growth is already done).
  std::size_t flips = 0;
  for (const auto& ev : events) flips += system.write(ev.line, ev.data).flips;
  const auto w0 = Clock::now();
  for (const auto& ev : events) flips += system.write(ev.line, ev.data).flips;
  const auto w1 = Clock::now();

  // --- Stage 4: placement search on aged lines ----------------------------
  const double place_f0 = place_ns_per_find(0, seed);
  const double place_f8 = place_ns_per_find(8, seed);
  const double place_f32 = place_ns_per_find(32, seed);

  // --- Stage 5: system.write on worn lines --------------------------------
  const bool profiling = prof::enabled();
  prof::set_enabled(false);
  const WornStage worn = worn_write_ns(events, seed, writes);
  prof::set_enabled(profiling);

  const double write_ns = ns_per_op(w0, w1, writes);
  const std::size_t checksum = comp_bytes ^ fnw_flips ^ flips;
  std::cout << "{\n"
            << "  \"writes\": " << writes << ",\n"
            << "  \"plan_ns_per_op\": " << ns_per_op(p0, p1, writes) << ",\n"
            << "  \"compress_ns_per_op\": " << ns_per_op(c0, c1, writes) << ",\n"
            << "  \"fnw_encode_ns_per_op\": " << ns_per_op(f0, f1, writes) << ",\n"
            << "  \"system_write_ns_per_op\": " << write_ns << ",\n"
            << "  \"system_writes_per_sec\": " << 1e9 / write_ns << ",\n"
            << "  \"system_write_worn_ns_per_op\": " << worn.ns_per_write << ",\n"
            << "  \"system_write_worn_writes\": " << worn.timed_writes << ",\n"
            << "  \"system_write_worn_dead_fraction\": " << worn.dead_fraction << ",\n"
            << "  \"place_find_ns_faults0\": " << place_f0 << ",\n"
            << "  \"place_find_ns_faults8\": " << place_f8 << ",\n"
            << "  \"place_find_ns_faults32\": " << place_f32 << ",\n"
            << "  \"checksum\": " << checksum;
  if (prof::enabled()) {
    std::cout << ",\n  \"profile\": ";
    prof::dump_json(std::cout, "  ");
  }
  std::cout << "\n}\n";

  return check_expected_checksum(args, checksum, "the write path's observable behaviour changed");
} catch (const std::exception& e) {
  return cli_error(e);
}
