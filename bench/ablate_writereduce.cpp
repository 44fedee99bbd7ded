// Ablation: chip-level write-reduction — plain differential writes (the
// baseline the paper assumes) versus Flip-N-Write (Cho & Lee, MICRO'09),
// measured as programmed bits per write-back on raw (uncompressed) traffic.
// FNW bounds flips at half the block plus flag bits; on low-entropy rewrites
// DW alone is already close to optimal.
#include <iostream>
#include <unordered_map>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "pcm/flip_n_write.hpp"
#include "trace/sampled_source.hpp"

using namespace pcmsim;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv, {"csv", "group", "threads", "writes"});
  set_threads_from_cli(args);
  const ScopedTimer timer("ablate_writereduce");
  const std::uint64_t writes = args.get_uint("writes", 40000);
  const auto group_bits = static_cast<std::size_t>(args.get_uint("group", 64));

  // Each app replays its own fixed-seed trace — one pool task per app.
  struct Flips {
    double dw = 0;
    double fnw = 0;
  };
  const std::vector<AppProfile> profiles = spec2006_profiles();
  const auto flips = parallel_map(profiles, [&](const AppProfile& app) {
    FlipNWriteCodec codec(group_bits);
    SampledTraceSource src(app, 1 << 12, 7);
    TraceCursor gen(src);
    struct State {
      Block stored{};
      std::uint64_t flags = 0;
      bool seen = false;
    };
    std::unordered_map<LineAddr, State> lines;
    RunningStat dw;
    RunningStat fnw;
    for (std::uint64_t i = 0; i < writes; ++i) {
      const auto ev = gen.next();
      auto& st = lines[ev.line];
      if (!st.seen) {
        st.seen = true;
        st.stored = ev.data;
        continue;
      }
      dw.add(static_cast<double>(FlipNWriteCodec::dw_flips(ev.data, st.stored)));
      fnw.add(static_cast<double>(codec.encoded_flips(ev.data, st.stored, st.flags)));
      const auto enc = codec.encode(ev.data, st.stored, st.flags);
      st.stored = enc.payload;
      st.flags = enc.invert_mask;
    }
    return Flips{dw.mean(), fnw.mean()};
  });

  TablePrinter table({"app", "dw_flips", "fnw_flips", "fnw_saving%"});
  double saving_sum = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const double saving = 100.0 * (1.0 - flips[i].fnw / flips[i].dw);
    saving_sum += saving;
    table.add_row({profiles[i].name, TablePrinter::fmt(flips[i].dw, 1),
                   TablePrinter::fmt(flips[i].fnw, 1), TablePrinter::fmt(saving, 1)});
  }
  table.add_row({"Average", "-", "-", TablePrinter::fmt(saving_sum / 15.0, 1)});

  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "Ablation — DW vs Flip-N-Write programmed bits per write (" +
                               std::to_string(group_bits) + "-bit groups)");
  }
  return 0;
} catch (const std::exception& e) {
  return cli_error(e);
}
