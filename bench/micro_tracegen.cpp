// Trace-subsystem microbenchmark: generation throughput of the
// SampledTraceSource every lifetime/figure run uses, v2 trace-file
// write/read throughput, and FileTraceSource decode throughput. Emits
// machine-readable JSON (committed numbers live in BENCH_tracegen.json).
//
// `--source file` skips the generation stage; only the file stages run.
//
// `--expect_checksum N` exits non-zero when the deterministic work checksum
// deviates — a rolling hash over every event the default stages produce
// (sampled generation for 3 apps, the v2 file round-trip, and the
// FileTraceSource re-decode, which must match the reader's stream
// bit-for-bit). CI runs this so sampler/file-format refactors that silently
// change a stream fail loudly. The checksum is machine- and
// thread-count-independent but does depend on the event count, so the gate
// pins --events too.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "trace/file_source.hpp"
#include "trace/sampled_source.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_source.hpp"

using namespace pcmsim;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kApps[] = {"gcc", "milc", "lbm"};

/// Rolling order-sensitive hash over an event stream; deterministic and
/// machine-independent, so it doubles as the CI behaviour gate.
std::uint64_t fold_event(std::uint64_t h, const WritebackEvent& ev) {
  h = mix64(h ^ ev.line);
  for (std::size_t w = 0; w < kBlockBytes; w += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, ev.data.data() + w, 8);
    h = mix64(h ^ word);
  }
  return h;
}

double wall_seconds(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count()) /
         1e9;
}

struct SourceRun {
  double ticks_per_event = 0;
  double ns_per_event = 0;
  std::uint64_t checksum = 0;
  std::size_t events = 0;
};

/// Drains up to `events` events in 256-entry batches with kTraceGen profiling
/// on, returning per-event ticks (profiler), wall ns, and the stream hash.
SourceRun run_source(TraceSource& source, std::size_t events) {
  std::vector<WritebackEvent> batch(256);
  SourceRun run;
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  prof::reset();
  prof::set_enabled(true);
  const auto t0 = Clock::now();
  std::size_t done = 0;
  while (done < events) {
    const std::size_t want = std::min(batch.size(), events - done);
    const std::size_t n = source.next_batch(std::span(batch.data(), want));
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) h = fold_event(h, batch[i]);
    done += n;
  }
  const auto t1 = Clock::now();
  prof::set_enabled(false);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  run.ticks_per_event = static_cast<double>(prof::stage_ticks(prof::Stage::kTraceGen)) /
                        static_cast<double>(done);
  run.ns_per_event = static_cast<double>(ns) / static_cast<double>(done);
  run.checksum = h;
  run.events = done;
  return run;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"events", "expect_checksum", "lines", "out", "seed", "source"});
  const auto events = static_cast<std::size_t>(args.get_int("events", 150000));
  const auto lines = static_cast<std::uint64_t>(args.get_int("lines", 4096));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string path = args.get("out", "/tmp/pcmsim_tracegen.trace");
  const std::string source_kind = args.get("source", "sampled");
  const auto expect_checksum = args.get_int("expect_checksum", -1);
  if (source_kind != "sampled" && source_kind != "file") {
    std::cerr << "--source must be 'sampled' or 'file'\n";
    return 1;
  }
  const std::size_t per_app = events / std::size(kApps);

  std::uint64_t checksum = 0;
  std::cout << "{\n  \"events\": " << events << ",\n  \"source\": \"" << source_kind
            << "\",\n";

  // --- Stage 1: generation throughput, per app -----------------------------
  if (source_kind != "file") {
    double sampled_ticks = 0;
    double sampled_ns = 0;
    std::cout << "  \"apps\": {";
    bool first = true;
    for (const char* app_name : kApps) {
      const AppProfile& app = profile_by_name(app_name);
      SampledTraceSource sampled(app, lines, seed);
      const SourceRun sr = run_source(sampled, per_app);
      sampled_ticks += sr.ticks_per_event;
      sampled_ns += sr.ns_per_event;
      checksum = mix64(checksum ^ mix64(sr.checksum));
      std::cout << (first ? "" : ",") << "\n    \"" << app_name << "\": {"
                << "\"sampled_ticks_per_event\": " << sr.ticks_per_event
                << ", \"sampled_ns_per_event\": " << sr.ns_per_event << "}";
      first = false;
    }
    const double napps = static_cast<double>(std::size(kApps));
    std::cout << "\n  },\n"
              << "  \"sampled_ticks_per_event\": " << sampled_ticks / napps << ",\n"
              << "  \"sampled_ns_per_event\": " << sampled_ns / napps << ",\n"
              << "  \"profile_compiled\": " << (prof::kCompiled ? "true" : "false")
              << ",\n";
  }

  // --- Stage 2: v2 trace file write/read throughput ------------------------
  // A sampled gcc stream: mostly compressible, the representative capture
  // case. Throughput is event payload (72 B/record equivalent) over wall
  // time; bytes_per_record reports the on-disk footprint after compression.
  const double payload_mb =
      static_cast<double>(events) * (8 + kBlockBytes) / (1024.0 * 1024.0);
  std::uint64_t serial_checksum = 0;
  {
    SampledTraceSource source(profile_by_name("gcc"), lines, seed);
    std::vector<WritebackEvent> batch(256);
    const auto w0 = Clock::now();
    TraceFileWriter writer(path);
    std::size_t done = 0;
    while (done < events) {
      const std::size_t n =
          source.next_batch(std::span(batch.data(), std::min(batch.size(), events - done)));
      for (std::size_t i = 0; i < n; ++i) writer.append(batch[i]);
      done += n;
    }
    writer.close();
    const auto w1 = Clock::now();

    std::uint64_t file_checksum = 0x9E3779B97F4A7C15ull;
    const auto r0 = Clock::now();
    TraceFileReader reader(path);
    WritebackEvent ev;
    std::uint64_t read_back = 0;
    while (reader.next(ev)) {
      file_checksum = fold_event(file_checksum, ev);
      ++read_back;
    }
    const auto r1 = Clock::now();
    if (read_back != events) {
      std::cerr << "v2 roundtrip lost records: wrote " << events << ", read " << read_back
                << "\n";
      return 1;
    }
    serial_checksum = file_checksum;
    checksum = mix64(checksum ^ file_checksum);

    std::ifstream f(path, std::ios::binary | std::ios::ate);
    const auto file_bytes = static_cast<double>(f.tellg());
    f.close();
    std::cout << "  \"v2_file_bytes_per_record\": "
              << file_bytes / static_cast<double>(events) << ",\n"
              << "  \"v2_write_mb_per_sec\": " << payload_mb / wall_seconds(w0, w1) << ",\n"
              << "  \"v2_read_mb_per_sec\": " << payload_mb / wall_seconds(r0, r1) << ",\n";
  }

  // --- Stage 3: FileTraceSource decode throughput -------------------------
  // Re-reads the stage-2 file through FileTraceSource; the delivered stream
  // must hash to the reader's value. mb_per_sec is the same 72 B/event
  // payload basis as stage 2.
  {
    FileTraceSource source(path);
    const SourceRun sr = run_source(source, events);
    if (sr.checksum != serial_checksum || sr.events != events) {
      std::cerr << "serial FileTraceSource diverged from TraceFileReader stream\n";
      return 1;
    }
    std::cout << "  \"v2_decode_serial_mb_per_sec\": "
              << payload_mb * 1e9 / (sr.ns_per_event * static_cast<double>(events)) << ",\n"
              << "  \"v2_decode_serial_events_per_sec\": " << 1e9 / sr.ns_per_event << ",\n";
    // The pinned gate value includes this second fold of the verified stream.
    checksum = mix64(checksum ^ mix64(serial_checksum));
  }
  std::remove(path.c_str());

  const std::size_t gate = static_cast<std::size_t>(checksum & 0x7FFFFFFFull);
  std::cout << "  \"checksum\": " << gate << "\n}\n";
  if (expect_checksum >= 0 && static_cast<std::size_t>(expect_checksum) != gate) {
    std::cerr << "checksum mismatch: expected " << expect_checksum << ", got " << gate
              << " — trace source or file-format behaviour changed\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
