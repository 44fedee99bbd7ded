// pcmbench: the end-to-end benchmark of pcmsim. It links the pcmsim
// libraries and drives each layer through its public API, timing those calls
// from the outside; no instrumentation lives in src/.
//
// Workloads (each is a whole run to the paper's failure criterion):
//   lifetime-milc  one 768-line Comp+WF region (ecp6, endurance 600, CoV
//                  0.15) driven by the sampled milc stream until 50% of its
//                  lines are dead: lifetime_study's Comp+WF cell. Almost all
//                  time is in the core write path, mostly on worn lines.
//   multitenant    ShardedPcmEngine: 16 sampled tenants cycling gcc, milc,
//                  lbm over 2 channels x 4 banks of 257-line shards,
//                  endurance 300, 4 threads, a fixed event budget sized
//                  above the last tenant's failure (a tenant still alive at
//                  the end counts with its writes so far, and the report
//                  names how many were). The only workload through sim,
//                  controller and the thread pool.
//   replay-tier    the two-stage method: set-up captures gcc LLC write-backs
//                  through the L1/L2 hierarchy (CmpSimulator) into a v2
//                  trace file; the timed phase replays it looped, with
//                  serial decode, through a 48 KB comp FrontTier into a
//                  768-line Comp+WF region until 50% dead. Decode and tier
//                  filtering dominate; few writes reach PCM.
//
// The seed picks the inputs: the region's endurance map and Start-Gap
// randomization (SystemConfig::seed = seed), the sampled stream (trace seed
// seed + 41, so seed 1 is lifetime_study's cell), the engine master seed,
// and the capture seed. Simulated results are deterministic per seed.
//
// One invocation repeats the workload, with a fresh set-up each time, while
// one more repetition still fits in --seconds (replay-tier captures once and
// replays the same file), and checks every repetition's simulated digest
// against the first and against --expect-digest (a pinned value). A plain
// run times the repo's own entry points: run_lifetime for the region
// workloads, ShardedPcmEngine::add_sampled_tenants and run for multitenant.
// --trace 1 alternates plain runs with two traced ones: a profiled run makes
// the same calls with the stage profiler on; a timed run drives the layers
// itself (run_lifetime's loop, or tenant sources wrapped in a timing
// decorator) and times every layer call. Both must reproduce the plain run's
// digest, and their extra wall time is reported as overhead.
//
// The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "values": {name: number}, "report"}
// perfbench/run.py turns it into the benchmark's result line.
//
//   pcmbench --workload lifetime-milc --seed 1 --seconds 10 --trace 0
//            [--scale full|smoke] [--expect-digest N] [--workdir DIR]
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/parallel.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "sim/lifetime.hpp"
#include "sim/sharded_engine.hpp"
#include "tier/front_tier.hpp"
#include "trace/file_source.hpp"
#include "trace/sampled_source.hpp"
#include "trace/trace_file.hpp"

using namespace pcmsim;

namespace {

// ------------------------------------------------------------ time, stats

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Moves the constructing thread round-robin over the CPUs the process may
/// use, one step every 50 ms, until destroyed. On a shared host each CPU sees
/// its own, slowly drifting interference from other tenants; a
/// single-threaded run that stays on one CPU inherits that CPU's luck, and
/// its time then varies far more between runs than within one. Rotating
/// averages every run over all CPUs. Simulated results do not depend on it.
class CpuRotation {
 public:
  CpuRotation() : target_(pthread_self()) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { rotate(); });
  }
  ~CpuRotation() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void rotate() {
    std::unique_lock lock(mutex_);
    for (std::size_t k = 0; !stop_; ++k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[k % cpus_.size()], &one);
      (void)pthread_setaffinity_np(target_, sizeof(one), &one);  // best effort
      wake_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; });
    }
  }

  pthread_t target_;
  std::vector<std::size_t> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: starts after the members it uses
};

// ------------------------------------------------------------ scales

/// Sizes of the three workloads. `full` is the benchmark; `smoke` is a
/// seconds-long version of the same code paths for the benchmark's own test.
struct Scale {
  std::uint64_t region_lines;          ///< lifetime-milc, replay-tier
  double region_endurance;
  std::uint64_t shard_lines;           ///< multitenant, per shard
  double shard_endurance;
  std::uint64_t engine_events;
  std::uint64_t capture_instructions;  ///< replay-tier, per core
  std::size_t tier_kb;
};
// Full-scale engine budget: 3.5M events are 218750 writes per tenant, 12%
// above the latest tenant failure over seeds 0-20 (195072, seed 7). A larger
// budget mostly times the post-failure tail.
constexpr Scale kFullScale{768, 600, 257, 300, 3'500'000, 600'000, 48};
constexpr Scale kSmokeScale{96, 40, 33, 40, 200'000, 20'000, 4};

constexpr std::size_t kEngineThreads = 4;
constexpr std::size_t kMinSetupSamples = 3;

// ------------------------------------------------------------ digests

std::array<std::uint64_t, 12> tier_fields(const FrontTierStats& t) {
  return {t.offered,      t.hits,          t.silent_hits, t.silent_drops,
          t.inserts,      t.evictions,     t.flushes,     t.invalidates,
          t.dedup_shares, t.fp_false_hits, t.words_forwarded, t.words_touched};
}

/// Order-sensitive fold of simulated results. Doubles enter by bit pattern:
/// the simulator is deterministic, so they repeat exactly.
class Digest {
 public:
  void add(std::uint64_t v) { h_ = mix64(h_, v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const RunningStat& s) {
    add(static_cast<std::uint64_t>(s.count()));
    add(s.sum());
    add(s.mean());
    add(s.min());
    add(s.max());
  }
  void add(const SystemStats& s) {
    for (const std::uint64_t v :
         {s.writes, s.compressed_writes, s.uncompressed_writes, s.dropped_writes,
          s.uncorrectable_events, s.window_slides, s.recycled_lines, s.gap_moves,
          s.lines_dead}) {
      add(v);
    }
    add(s.faults_at_death);
    add(s.flips_per_write);
    add(s.compressed_size);
  }
  void add(const FrontTierStats& t) {
    for (const std::uint64_t v : tier_fields(t)) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x50434d42454e4348ull;  // "PCMBENCH"
};

/// Every field of run_lifetime's result.
std::uint64_t digest_of(const LifetimeResult& r) {
  Digest d;
  for (const std::uint64_t v : {r.writes_to_failure, std::uint64_t{r.reached_failure},
                                r.programmed_bits, r.uncorrectable_events, r.recycled_lines,
                                r.offered_writes}) {
    d.add(v);
  }
  for (const double v : {r.mean_faults_at_death, r.mean_flips_per_write, r.compressed_fraction,
                         r.mean_compressed_size, r.energy_pj_per_write,
                         r.tier_write_latency_cycles}) {
    d.add(v);
  }
  d.add(r.tier);
  return d.value();
}

std::uint64_t digest_of(const ShardedRunResult& r) {
  Digest d;
  d.add(r.checksum);
  d.add(r.total);
  d.add(r.tier);
  for (const ShardedShardResult& s : r.shards) d.add(s.write_latency_mean);
  return d.value();
}

// ------------------------------------------------------------ samples

/// How a run is observed. Plain runs call the repo's entry points and are
/// the end-to-end measurement. Timed runs drive the layers themselves and
/// time every layer call from outside; profiled runs make the plain run's
/// calls with the stage profiler on. Each costs host time, so they are
/// separate runs.
enum class Mode { kPlain, kTimed, kProfiled };

/// One set-up plus one timed run of a workload.
struct Sample {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double offered = 0.0;          ///< write-backs offered in the timed phase
  double lifetime_writes = 0.0;  ///< simulated, see BENCHMARK.json
  double flips_per_write = 0.0;
  std::uint64_t digest = 0;
  std::map<std::string, double> layers;  ///< what a traced run measured
  std::map<std::string, double> facts;   ///< simulated details for the report
};

/// Every per-layer metric, zero where a workload has no such layer.
std::map<std::string, double> zero_layers() {
  std::map<std::string, double> m;
  for (const char* name :
       {"trace.sample_ns_per_event", "trace.decode_ns_per_event",
        "tier.put_self_ns_per_offered", "tier.absorbed_frac", "tier.forwarded_writes",
        "core.window_slides", "core.recycled_lines", "core.compressed_frac",
        "core.dropped_writes", "tier.stage.filter_ticks_per_offered", "wear.gap_moves",
        "sim.run_s", "sim.tenant_source_s", "sim.epochs", "sim.shard_events_imbalance",
        "controller.shard_utilization_mean", "controller.write_latency_mean_cycles",
        "cache.capture_s", "cache.writebacks"}) {
    m[name] = 0.0;
  }
  for (const char* phase : {"fresh", "aging", "worn"}) {
    m[std::string("core.write_ns_mean.") + phase] = 0.0;
    m[std::string("core.write_ns_p99.") + phase] = 0.0;
    m[std::string("core.writes.") + phase] = 0.0;
  }
  for (const char* stage : {"compress", "heuristic", "place", "program", "gap_move"}) {
    m[std::string("core.stage.") + stage + "_ticks_per_write"] = 0.0;
  }
  return m;
}

/// Core counters common to every workload.
void add_core_layers(std::map<std::string, double>& m, const SystemStats& st) {
  m["core.window_slides"] = static_cast<double>(st.window_slides);
  m["core.recycled_lines"] = static_cast<double>(st.recycled_lines);
  m["core.compressed_frac"] =
      ratio(static_cast<double>(st.compressed_writes),
            static_cast<double>(st.compressed_writes + st.uncompressed_writes));
  m["core.dropped_writes"] = static_cast<double>(st.dropped_writes);
  m["wear.gap_moves"] = static_cast<double>(st.gap_moves);
}

/// Stage-profiler ticks of a profiled run, per PCM write and (with a front
/// tier) per offered write-back.
std::map<std::string, double> stage_layers(std::uint64_t pcm_writes, const FrontTierStats* tier) {
  std::map<std::string, double> m;
  const auto writes = static_cast<double>(pcm_writes);
  const std::pair<const char*, prof::Stage> stages[] = {
      {"compress", prof::Stage::kCompress}, {"heuristic", prof::Stage::kHeuristic},
      {"place", prof::Stage::kPlace},       {"program", prof::Stage::kProgram},
      {"gap_move", prof::Stage::kGapMove}};
  for (const auto& [name, stage] : stages) {
    m[std::string("core.stage.") + name + "_ticks_per_write"] =
        ratio(static_cast<double>(prof::stage_ticks(stage)), writes);
  }
  if (tier) {
    m["tier.stage.filter_ticks_per_offered"] =
        ratio(static_cast<double>(prof::stage_ticks(prof::Stage::kTierFilter)),
              static_cast<double>(tier->offered));
  }
  return m;
}

/// Scope of one profiled run: counters start from zero.
class ProfileScope {
 public:
  explicit ProfileScope(bool on) : on_(on) {
    if (on_) {
      prof::reset();
      prof::set_enabled(true);
    }
  }
  ~ProfileScope() {
    if (on_) prof::set_enabled(false);
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  bool on_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Worker threads the workload runs with.
  [[nodiscard]] virtual std::size_t threads() const = 0;
  /// One fresh set-up and one timed run, observed as `mode` says.
  virtual Sample run(Mode mode) = 0;
  /// One more set-up, timed and torn down (extra set-up samples).
  virtual double setup_only() = 0;
  /// A slower check that the simulated result does not depend on how the
  /// run was driven, made in traced and smoke runs: whether it reproduces
  /// `digest`, or nothing when the workload has no such check.
  virtual std::optional<bool> cross_check(std::uint64_t) { return std::nullopt; }
  /// Configuration, for the report.
  [[nodiscard]] virtual std::string describe() const = 0;
};

// ------------------------------------------------------------ one region

/// Host time of each layer call in a timed region run.
struct RegionClocks {
  std::uint64_t source_ns = 0;
  std::uint64_t source_events = 0;
  std::uint64_t put_ns = 0;    ///< FrontTier::put, including forwards
  std::uint64_t write_ns = 0;  ///< PcmSystem::write, all phases
  std::array<std::vector<std::uint32_t>, 3> phase_ns;  ///< fresh, aging, worn
};

/// Lifetime phase by dead fraction: none dead, under 25% dead, the rest.
int phase_of(const PcmSystem& sys) {
  if (sys.stats().lines_dead == 0) return 0;
  return sys.dead_fraction() < 0.25 ? 1 : 2;
}

void timed_write(PcmSystem& sys, LineAddr line, const Block& data, RegionClocks& clocks) {
  const int phase = phase_of(sys);
  const std::uint64_t t0 = now_ns();
  (void)sys.write(line, data);
  const std::uint64_t dt = now_ns() - t0;
  clocks.write_ns += dt;
  clocks.phase_ns[static_cast<std::size_t>(phase)].push_back(
      static_cast<std::uint32_t>(std::min<std::uint64_t>(dt, UINT32_MAX)));
}

struct DriveResult {
  std::uint64_t offered = 0;
  bool reached_failure = false;
};

/// Timed runs only: run_lifetime's loop (batches of 256 from the source,
/// offered one by one, failure polled every check_interval offered writes)
/// with TraceSource::next_batch timed. Plain runs call run_lifetime itself.
template <typename Offer>
DriveResult drive_timed(TraceSource& source, const PcmSystem& sys, const LifetimeConfig& lc,
                        RegionClocks& clocks, Offer&& offer) {
  std::array<WritebackEvent, 256> batch;
  DriveResult d;
  while (d.offered < lc.max_writes) {
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(batch.size(), lc.max_writes - d.offered));
    const std::uint64_t t0 = now_ns();
    const std::size_t n = source.next_batch(std::span(batch.data(), want));
    clocks.source_ns += now_ns() - t0;
    clocks.source_events += n;
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      offer(batch[i]);
      ++d.offered;
      if (d.offered % lc.check_interval == 0 && sys.failed()) {
        d.reached_failure = true;
        return d;
      }
    }
  }
  d.reached_failure = sys.failed();
  return d;
}

/// A timed run's end state folded as run_lifetime folds it, so that its
/// digest compares with the plain run's.
LifetimeResult timed_result(const PcmSystem& sys, const DriveResult& d, FrontTier* tier) {
  LifetimeResult r;
  r.reached_failure = d.reached_failure;
  r.offered_writes = d.offered;
  if (tier) {
    tier->finish_timing();
    r.tier = tier->stats();
    if (const MemoryController* mc = tier->controller()) {
      r.tier_write_latency_cycles = mc->write_latency().mean();
    }
  }
  const SystemStats& st = sys.stats();
  r.writes_to_failure = st.writes;
  r.programmed_bits = static_cast<std::uint64_t>(st.flips_per_write.sum());
  r.uncorrectable_events = st.uncorrectable_events;
  r.recycled_lines = st.recycled_lines;
  r.mean_faults_at_death = st.faults_at_death.mean();
  r.mean_flips_per_write = st.flips_per_write.mean();
  const double stored = static_cast<double>(st.compressed_writes + st.uncompressed_writes);
  r.compressed_fraction = ratio(static_cast<double>(st.compressed_writes), stored);
  r.mean_compressed_size = st.compressed_size.mean();
  r.energy_pj_per_write = ratio(sys.array().write_energy_pj(), static_cast<double>(st.writes));
  return r;
}

/// A single Comp+WF region run to 50% dead: lifetime-milc and replay-tier.
class RegionWorkload : public Workload {
 public:
  explicit RegionWorkload(LifetimeConfig lc) : lc_(std::move(lc)) {}

  [[nodiscard]] std::size_t threads() const override { return 1; }

  /// A plain or profiled run's wall time is the repo's own run_lifetime
  /// call, which builds its region inside; setup_s is a separate set-up of
  /// the same objects.
  Sample run(Mode mode) override {
    if (mode == Mode::kTimed) return run_timed();
    Sample s;
    s.setup_s = setup_only();
    const ProfileScope profile(mode == Mode::kProfiled);
    const std::uint64_t t0 = now_ns();
    const LifetimeResult life = call_run_lifetime();
    s.wall_s = seconds_since(t0);
    finish(s, life);
    if (mode == Mode::kProfiled) {
      s.layers = stage_layers(life.writes_to_failure, lc_.tier.enabled() ? &life.tier : nullptr);
    }
    return s;
  }

  double setup_only() override {
    const double prepared_s = prepare();
    const std::uint64_t t0 = now_ns();
    PcmSystem sys(lc_.system);
    const std::unique_ptr<TraceSource> source = open_source(sys);
    std::optional<FrontTier> tier;
    if (lc_.tier.enabled()) tier.emplace(lc_.tier, [](const FrontTier::Forward&) {});
    return prepared_s + seconds_since(t0);
  }

 protected:
  /// Set-up that every run needs but that yields the same result each time
  /// (replay-tier's capture): done once, and its host time is added to every
  /// set-up sample. Returns that time.
  virtual double prepare() { return 0.0; }
  virtual std::unique_ptr<TraceSource> open_source(const PcmSystem& sys) = 0;
  /// The workload's run_lifetime call, as the repo's drivers make it.
  virtual LifetimeResult call_run_lifetime() = 0;
  /// The per-layer name of the source's time per event.
  [[nodiscard]] virtual const char* source_metric() const = 0;
  virtual void add_layers(std::map<std::string, double>&) const {}

  LifetimeConfig lc_;

 private:
  static void finish(Sample& s, const LifetimeResult& life) {
    if (!life.reached_failure) throw std::runtime_error("the region never reached 50% dead");
    s.offered = static_cast<double>(life.offered_writes);
    s.lifetime_writes = s.offered;
    s.flips_per_write = life.mean_flips_per_write;
    s.digest = digest_of(life);
  }

  /// run_lifetime's work with every layer call timed from outside. With a
  /// tier, PcmSystem::write is timed in the tier's forward sink.
  Sample run_timed() {
    Sample s;
    const double prepared_s = prepare();
    const std::uint64_t t0 = now_ns();
    PcmSystem sys(lc_.system);
    const std::unique_ptr<TraceSource> source = open_source(sys);
    RegionClocks clocks;
    const std::uint64_t logical = sys.logical_lines();
    std::optional<FrontTier> tier;
    if (lc_.tier.enabled()) {
      tier.emplace(lc_.tier, [&sys, &clocks, logical](const FrontTier::Forward& f) {
        timed_write(sys, f.line % logical, f.data, clocks);
      });
    }
    s.setup_s = prepared_s + seconds_since(t0);

    const std::uint64_t t1 = now_ns();
    DriveResult d;
    if (tier) {
      d = drive_timed(*source, sys, lc_, clocks, [&](const WritebackEvent& ev) {
        const std::uint64_t t = now_ns();
        (void)tier->put(ev.line % logical, ev.data);
        clocks.put_ns += now_ns() - t;
      });
    } else {
      d = drive_timed(*source, sys, lc_, clocks, [&](const WritebackEvent& ev) {
        timed_write(sys, ev.line % logical, ev.data, clocks);
      });
    }
    s.wall_s = seconds_since(t1);

    FrontTier* const front = tier ? &*tier : nullptr;
    finish(s, timed_result(sys, d, front));
    s.layers = layers(sys, clocks, front);
    return s;
  }

  std::map<std::string, double> layers(const PcmSystem& sys, RegionClocks& clocks,
                                       const FrontTier* tier) const {
    std::map<std::string, double> m;
    m[source_metric()] = ratio(static_cast<double>(clocks.source_ns),
                               static_cast<double>(clocks.source_events));
    const char* names[] = {"fresh", "aging", "worn"};
    for (std::size_t p = 0; p < 3; ++p) {
      std::vector<std::uint32_t>& ns = clocks.phase_ns[p];
      double sum = 0.0;
      for (const std::uint32_t v : ns) sum += v;
      double p99 = 0.0;
      if (!ns.empty()) {
        const auto k = static_cast<std::size_t>(0.99 * static_cast<double>(ns.size() - 1));
        std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k), ns.end());
        p99 = ns[k];
      }
      m[std::string("core.write_ns_mean.") + names[p]] =
          ratio(sum, static_cast<double>(ns.size()));
      m[std::string("core.write_ns_p99.") + names[p]] = p99;
      m[std::string("core.writes.") + names[p]] = static_cast<double>(ns.size());
    }
    add_core_layers(m, sys.stats());
    if (tier) {
      const FrontTierStats& t = tier->stats();
      const auto offered = static_cast<double>(t.offered);
      m["tier.put_self_ns_per_offered"] =
          ratio(static_cast<double>(clocks.put_ns) - static_cast<double>(clocks.write_ns),
                offered);
      m["tier.absorbed_frac"] = ratio(static_cast<double>(t.absorbed()), offered);
      m["tier.forwarded_writes"] = static_cast<double>(t.evictions + t.flushes);
    }
    add_layers(m);
    return m;
  }
};

LifetimeConfig region_config(const Scale& scale, std::uint64_t seed) {
  LifetimeConfig lc;
  lc.system.mode = SystemMode::kCompWF;
  lc.system.ecc_spec = "ecp6";
  lc.system.device.lines = scale.region_lines;
  lc.system.device.endurance_mean = scale.region_endurance;
  lc.system.device.endurance_cov = 0.15;
  lc.system.seed = seed;
  lc.max_writes = 4'000'000'000ull;  // lifetime_study's cap; failure comes first
  return lc;
}

class LifetimeMilc final : public RegionWorkload {
 public:
  LifetimeMilc(const Scale& scale, std::uint64_t seed)
      : RegionWorkload(region_config(scale, seed)), trace_seed_(seed + 41) {}

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "milc sampled stream (trace seed " << trace_seed_ << ") -> "
       << lc_.system.device.lines << "-line Comp+WF ecp6 region, endurance "
       << lc_.system.device.endurance_mean << ", system seed " << lc_.system.seed;
    return os.str();
  }

 protected:
  std::unique_ptr<TraceSource> open_source(const PcmSystem& sys) override {
    return std::make_unique<SampledTraceSource>(app(), sys.logical_lines(), trace_seed_);
  }
  /// lifetime_study's call for its Comp+WF cell.
  LifetimeResult call_run_lifetime() override { return run_lifetime(app(), lc_, trace_seed_); }
  [[nodiscard]] const char* source_metric() const override {
    return "trace.sample_ns_per_event";
  }

 private:
  static const AppProfile& app() { return profile_by_name("milc"); }
  std::uint64_t trace_seed_;
};

class ReplayTier final : public RegionWorkload {
 public:
  ReplayTier(const Scale& scale, std::uint64_t seed, std::string path)
      : RegionWorkload(tiered(region_config(scale, seed), scale)),
        seed_(seed),
        instructions_(scale.capture_instructions),
        path_(std::move(path)) {}
  ~ReplayTier() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  ReplayTier(const ReplayTier&) = delete;
  ReplayTier& operator=(const ReplayTier&) = delete;

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "gcc capture (" << instructions_ << " instructions/core, seed " << seed_
       << ") -> looped v2 replay -> " << lc_.tier.capacity_lines * kBlockBytes / 1024
       << " KB " << to_string(lc_.tier.policy) << " front tier -> "
       << lc_.system.device.lines << "-line Comp+WF ecp6 region, endurance "
       << lc_.system.device.endurance_mean;
    return os.str();
  }

 protected:
  /// Stage one of the paper's method: LLC write-backs of the 16-core
  /// hierarchy, captured to a v2 trace file.
  double prepare() override {
    if (!captured_) {
      const std::uint64_t t0 = now_ns();
      TraceFileWriter writer(path_);
      CmpSimulator sim(profile_by_name("gcc"), HierarchyConfig{}, seed_,
                       [&writer](const Writeback& wb) { writer.append({wb.line, wb.data}); });
      sim.run(instructions_);
      writer.close();
      capture_s_ = seconds_since(t0);
      writebacks_ = writer.records();
      captured_ = true;
    }
    return capture_s_;
  }
  std::unique_ptr<TraceSource> open_source(const PcmSystem&) override {
    return std::make_unique<LoopedFileTraceSource>(path_, TraceDecode::kSerial);
  }
  LifetimeResult call_run_lifetime() override {
    LoopedFileTraceSource source(path_, TraceDecode::kSerial);
    return run_lifetime(source, lc_);
  }
  [[nodiscard]] const char* source_metric() const override {
    return "trace.decode_ns_per_event";
  }
  void add_layers(std::map<std::string, double>& m) const override {
    m["cache.capture_s"] = capture_s_;
    m["cache.writebacks"] = static_cast<double>(writebacks_);
  }

 private:
  static LifetimeConfig tiered(LifetimeConfig lc, const Scale& scale) {
    lc.tier = FrontTierConfig::for_kb(scale.tier_kb, TierPolicy::kComp);
    return lc;
  }

  std::uint64_t seed_;
  std::uint64_t instructions_;
  std::string path_;
  bool captured_ = false;
  double capture_s_ = 0.0;
  std::uint64_t writebacks_ = 0;
};

// ------------------------------------------------------------ multitenant

/// Decorator timing each next_batch of a tenant source. The engine calls
/// tenant sources only from its single dispatch task, one epoch at a time,
/// so the plain counters need no synchronization.
class TimedSource final : public TraceSource {
 public:
  explicit TimedSource(std::unique_ptr<TraceSource> inner) : inner_(std::move(inner)) {}

  std::size_t next_batch(std::span<WritebackEvent> out) override {
    const std::uint64_t t0 = now_ns();
    const std::size_t n = inner_->next_batch(out);
    ns_ += now_ns() - t0;
    return n;
  }
  [[nodiscard]] std::uint64_t events() const override { return inner_->events(); }
  void reset() override { inner_->reset(); }

  [[nodiscard]] std::uint64_t ns() const { return ns_; }

 private:
  std::unique_ptr<TraceSource> inner_;
  std::uint64_t ns_ = 0;
};

class MultiTenant final : public Workload {
 public:
  MultiTenant(const Scale& scale, std::uint64_t seed) : events_(scale.engine_events) {
    cfg_.shard_system.device.lines = scale.shard_lines;
    cfg_.shard_system.device.endurance_mean = scale.shard_endurance;
    cfg_.shard_system.device.endurance_cov = 0.15;
    cfg_.map.channels = 2;
    cfg_.map.banks_per_channel = 4;
    cfg_.tenants = 16;
    cfg_.seed = seed;
    for (const char* name : {"gcc", "milc", "lbm"}) apps_.push_back(profile_by_name(name));
  }

  [[nodiscard]] std::size_t threads() const override { return kEngineThreads; }

  /// Plain and profiled runs populate the engine with add_sampled_tenants;
  /// a timed run adds the same tenants wrapped in TimedSource.
  Sample run(Mode mode) override {
    Sample s;
    const std::uint64_t t0 = now_ns();
    ShardedPcmEngine engine(cfg_);
    std::vector<const TimedSource*> sources;
    if (mode == Mode::kTimed) {
      add_timed_tenants(engine, sources);
    } else {
      engine.add_sampled_tenants(apps_);
    }
    s.setup_s = seconds_since(t0);

    const ProfileScope profile(mode == Mode::kProfiled);
    const std::uint64_t t1 = now_ns();
    const ShardedRunResult r = engine.run(events_);
    s.wall_s = seconds_since(t1);

    // A tenant still alive when the budget runs out counts with the writes
    // it had by then (a censored lifetime), and the report says how many.
    double life = 0.0;
    std::uint64_t survivors = 0;
    std::uint64_t last_failure = 0;
    for (const ShardedTenantResult& t : r.tenants) {
      life += static_cast<double>(t.failed ? t.writes_at_failure : t.writes);
      survivors += t.failed ? 0 : 1;
      last_failure = std::max(last_failure, t.writes_at_failure);
    }
    const auto tenants = static_cast<double>(r.tenants.size());
    s.offered = static_cast<double>(r.events);
    s.lifetime_writes = life / tenants;
    s.flips_per_write = r.total.flips_per_write.mean();
    s.digest = digest_of(r);
    s.facts["survivors"] = static_cast<double>(survivors);
    s.facts["last_failure_writes_per_tenant"] = static_cast<double>(last_failure);
    s.facts["budget_writes_per_tenant"] = static_cast<double>(events_) / tenants;
    if (mode == Mode::kTimed) s.layers = layers(r, s.wall_s, sources);
    if (mode == Mode::kProfiled) s.layers = stage_layers(r.total.writes, nullptr);
    return s;
  }

  double setup_only() override {
    const std::uint64_t t0 = now_ns();
    ShardedPcmEngine engine(cfg_);
    engine.add_sampled_tenants(apps_);
    return seconds_since(t0);
  }

  /// At 1 thread, plain and timed runs (add_sampled_tenants, and the
  /// TimedSource-wrapped tenants) must give the 4-thread digest too.
  std::optional<bool> cross_check(std::uint64_t digest) override {
    set_parallel_threads(1);
    const bool ok = run(Mode::kPlain).digest == digest && run(Mode::kTimed).digest == digest;
    set_parallel_threads(kEngineThreads);
    return ok;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << cfg_.tenants << " sampled tenants (gcc,milc,lbm) -> " << cfg_.map.channels << "x"
       << cfg_.map.banks_per_channel << " shards of " << cfg_.shard_system.device.lines
       << " lines, endurance " << cfg_.shard_system.device.endurance_mean << ", " << events_
       << " events, " << kEngineThreads << " threads, seed " << cfg_.seed;
    return os.str();
  }

 private:
  /// Tenant t runs apps[t % 3] with stream seed mix64(seed, salt, t), as
  /// add_sampled_tenants populates it, behind a TimedSource.
  void add_timed_tenants(ShardedPcmEngine& engine, std::vector<const TimedSource*>& timed) const {
    const std::uint64_t region = engine.tenant_region_lines();
    for (std::uint32_t t = 0; t < cfg_.tenants; ++t) {
      auto source = std::make_unique<TimedSource>(std::make_unique<SampledTraceSource>(
          apps_[t % apps_.size()], region,
          mix64(cfg_.seed, ShardedPcmEngine::kTenantSeedSalt, t)));
      timed.push_back(source.get());
      engine.add_tenant(std::move(source));
    }
  }

  static std::map<std::string, double> layers(const ShardedRunResult& r, double wall_s,
                                              const std::vector<const TimedSource*>& timed) {
    std::map<std::string, double> m;
    std::uint64_t source_ns = 0;
    std::uint64_t source_events = 0;
    for (const TimedSource* t : timed) {
      source_ns += t->ns();
      source_events += t->events();
    }
    m["trace.sample_ns_per_event"] =
        ratio(static_cast<double>(source_ns), static_cast<double>(source_events));
    m["sim.run_s"] = wall_s;
    m["sim.tenant_source_s"] = static_cast<double>(source_ns) * 1e-9;
    m["sim.epochs"] = static_cast<double>(r.epochs);
    double max_events = 0.0;
    double utilization = 0.0;
    double latency = 0.0;
    for (const ShardedShardResult& s : r.shards) {
      max_events = std::max(max_events, static_cast<double>(s.events));
      utilization += s.utilization;
      latency += s.write_latency_mean;
    }
    const auto shards = static_cast<double>(r.shards.size());
    m["sim.shard_events_imbalance"] =
        ratio(max_events, static_cast<double>(r.events) / shards);
    m["controller.shard_utilization_mean"] = utilization / shards;
    m["controller.write_latency_mean_cycles"] = latency / shards;
    add_core_layers(m, r.total);
    return m;
  }

  ShardedEngineConfig cfg_;
  std::vector<AppProfile> apps_;
  std::uint64_t events_;
};

// ------------------------------------------------------------ report

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string host_block(std::size_t threads, bool cpu_rotation) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_string(cpu_model()) << ", \"compiler\": "
#if defined(__clang__)
     << json_string(std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
     << json_string(std::string("gcc ") + __VERSION__)
#else
     << json_string("unknown")
#endif
     << ", \"build_type\": " << json_string(PCMBENCH_BUILD_TYPE)
     << ", \"lto\": " << (PCMBENCH_LTO ? "true" : "false")
     << ", \"simd\": " << json_string(simd::backend_name())
     << ", \"profiler_compiled\": " << (prof::kCompiled ? "true" : "false")
     << ", \"threads\": " << threads
     << ", \"cpu_rotation\": " << (cpu_rotation ? "true" : "false") << "}";
  return os.str();
}

// ------------------------------------------------------------ main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::optional<std::uint64_t> expect_digest;
  std::string workdir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "smoke") {
        throw std::invalid_argument("--scale takes full or smoke");
      }
      o.smoke = value == "smoke";
    } else if (key == "--expect-digest") {
      o.expect_digest = std::stoull(value);
    } else if (key == "--workdir") {
      o.workdir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  const Scale& scale = o.smoke ? kSmokeScale : kFullScale;
  if (o.workload == "lifetime-milc") return std::make_unique<LifetimeMilc>(scale, o.seed);
  if (o.workload == "multitenant") return std::make_unique<MultiTenant>(scale, o.seed);
  if (o.workload == "replay-tier") {
    const std::string path =
        o.workdir + "/replay-" + std::to_string(o.seed) + (o.smoke ? "-smoke" : "") + ".trace";
    return std::make_unique<ReplayTier>(scale, o.seed, path);
  }
  throw std::invalid_argument("unknown workload '" + o.workload +
                              "' (lifetime-milc, multitenant, replay-tier)");
}

int run(const Options& o) {
  const std::unique_ptr<Workload> workload = make_workload(o);
  set_parallel_threads(workload->threads());
  // A multi-threaded run already spreads over the CPUs, and pinning its
  // calling thread would collide with the pool's workers.
  std::optional<CpuRotation> rotation;
  if (workload->threads() == 1) rotation.emplace();

  std::vector<Sample> plain;
  std::vector<Sample> timed;
  std::vector<Sample> profiled;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest;
  const auto attempt = [&](Mode mode, std::vector<Sample>& into) {
    ++attempted;
    try {
      Sample s = workload->run(mode);
      if (!digest) digest = s.digest;
      if (s.digest != *digest) {
        ++failed;
        std::cerr << "digest " << s.digest << " differs from the first run's " << *digest
                  << "\n";
      }
      std::cerr << "run (mode " << static_cast<int>(mode) << "): setup " << s.setup_s
                << " s, wall " << s.wall_s << " s, offered " << s.offered << "\n";
      into.push_back(std::move(s));
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "run failed: " << e.what() << "\n";
    }
  };

  // Plain, timed and profiled runs alternate, so all see the same host
  // drift. A round starts only if one more like the last still fits in
  // --seconds.
  const std::uint64_t start = now_ns();
  double round_s = 0.0;
  do {
    const std::uint64_t t0 = now_ns();
    attempt(Mode::kPlain, plain);
    if (o.trace) {
      attempt(Mode::kTimed, timed);
      attempt(Mode::kProfiled, profiled);
    }
    round_s = seconds_since(t0);
  } while (seconds_since(start) + round_s <= o.seconds);
  if (plain.empty() || (o.trace && (timed.empty() || profiled.empty()))) {
    std::cerr << "no run completed\n";
    return 1;
  }

  // Correctness: every run agreed with the first (above), the first with
  // the pin, and, when tracing or in the smoke test, the workload's own
  // cross-check.
  if (o.expect_digest) {
    ++attempted;
    if (*digest != *o.expect_digest) {
      ++failed;
      std::cerr << "digest " << *digest << " != pinned " << *o.expect_digest << "\n";
    }
  }
  if (o.trace || o.smoke) {
    try {
      if (const std::optional<bool> agrees = workload->cross_check(*digest)) {
        ++attempted;
        if (!*agrees) {
          ++failed;
          std::cerr << "the cross-check run's digest differs\n";
        }
      }
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::cerr << "cross-check run failed: " << e.what() << "\n";
    }
  }

  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> rates;
  for (const Sample& s : plain) {
    setups.push_back(s.setup_s);
    walls.push_back(s.wall_s);
    rates.push_back(s.offered / s.wall_s);
  }
  while (setups.size() < kMinSetupSamples) setups.push_back(workload->setup_only());

  const auto median_wall = [](const std::vector<Sample>& samples) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.wall_s);
    return median(v);
  };
  std::map<std::string, double> values;
  if (o.trace) {
    values = zero_layers();
    for (const std::vector<Sample>* samples : {&timed, &profiled}) {
      for (const auto& [name, unused] : samples->front().layers) {
        std::vector<double> v;
        for (const Sample& s : *samples) v.push_back(s.layers.at(name));
        values[name] = median(v);
      }
    }
    values["tracing_overhead_s"] = median_wall(timed) - median(walls);
    values["profiler_overhead_s"] = median_wall(profiled) - median(walls);
  } else {
    const Sample& first = plain.front();
    values["wall_s"] = median(walls);
    values["writes_per_s"] = median(rates);
    values["setup_s"] = median(setups);
    values["peak_rss_mb"] = peak_rss_mb();
    values["lifetime_writes"] = first.lifetime_writes;
    values["flips_per_write"] = first.flips_per_write;
  }

  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"values\": {";
  const char* sep = "";
  for (const auto& [name, v] : values) {
    out << sep << json_string(name) << ": " << json_number(v);
    sep = ", ";
  }
  out << "}, \"report\": {\"workload\": " << json_string(o.workload)
      << ", \"config\": " << json_string(workload->describe()) << ", \"seed\": " << o.seed
      << ", \"digest\": \"" << *digest << "\", \"lifetime_writes\": "
      << json_number(plain.front().lifetime_writes) << ", \"facts\": {";
  sep = "";
  for (const auto& [name, v] : plain.front().facts) {
    out << sep << json_string(name) << ": " << json_number(v);
    sep = ", ";
  }
  out << "}, \"host\": " << host_block(workload->threads(), rotation.has_value())
      << ", \"wall_s\": " << json_array(walls) << ", \"setup_s\": " << json_array(setups)
      << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pcmbench: " << e.what() << "\n";
    return 2;
  }
}
