// E6 — Inter-client transfers vs everything-through-the-server (§III.B/C).
//
// The design goal of BOINC-MR is "significantly reducing the network
// overhead on the central BOINC server". This experiment sweeps the
// intermediate-data volume (via input size) and reducer count, comparing
// plain BOINC (reducers download mirrored map outputs from the data
// server) with BOINC-MR (reducers fetch from mapper peers), including the
// no-mirror mode where map outputs never touch the server and only hashes
// are reported.

#include "bench_util.h"

namespace vcmr {
namespace {

void run(int n_seeds) {
  std::printf("E6 — INTER-CLIENT TRANSFERS vs SERVER RELAY (20 nodes, 20 maps, "
              "%d seeds)\n\n", n_seeds);
  std::printf("%-22s %6s %4s | %-12s %-12s | %9s %9s %9s\n", "variant",
              "input", "#Red", "Reduce (s)", "Total (s)", "SrvOut",
              "SrvIn", "P2P");
  std::printf("%-22s %6s %4s | %-12s %-12s | %9s %9s %9s\n", "", "(MB)", "",
              "", "", "(MB)", "(MB)", "(MB)");
  std::printf("%s\n", std::string(104, '=').c_str());

  for (const Bytes input : {250LL * 1000 * 1000, 1000LL * 1000 * 1000,
                            2000LL * 1000 * 1000}) {
    for (const int reds : {2, 5, 10}) {
      struct V {
        const char* name;
        bool mr;
        bool mirror;
      };
      for (const V v : {V{"BOINC (server relay)", false, true},
                        V{"BOINC-MR (mirrored)", true, true},
                        V{"BOINC-MR (hash-only)", true, false}}) {
        core::Scenario s;
        s.n_nodes = 20;
        s.n_maps = 20;
        s.n_reducers = reds;
        s.input_size = input;
        s.boinc_mr = v.mr;
        s.project.mirror_map_outputs = v.mirror;
        const auto outcomes = bench::run_seeds(s, n_seeds);
        const bench::AveragedRow avg = bench::average(outcomes);
        std::printf("%-22s %6lld %4d | %-12s %-12s | %9.0f %9.0f %9.0f\n",
                    v.name, static_cast<long long>(input / 1000000), reds,
                    bench::cell(avg.reduce_avg, avg.reduce_trimmed).c_str(),
                    bench::cell(avg.total, avg.total_trimmed).c_str(),
                    avg.server_out_mb, avg.server_in_mb, avg.interclient_mb);
        common::JsonWriter()
            .field("experiment", "E6")
            .field("variant", v.name)
            .field("input_mb", static_cast<std::int64_t>(input / 1000000))
            .field("reducers", reds)
            .field("mirror_map_outputs", v.mirror)
            .field("boinc_mr", v.mr)
            .field("seeds", avg.runs)
            .field("completed", avg.completed)
            .field("reduce_s", avg.reduce_avg)
            .field("total_s", avg.total)
            .field("server_out_mb", avg.server_out_mb)
            .field("server_in_mb", avg.server_in_mb)
            .field("interclient_mb", avg.interclient_mb)
            .emit();
      }
      std::printf("%s\n", std::string(104, '-').c_str());
    }
  }
  std::printf(
      "\nExpected shape: BOINC-MR moves the whole intermediate volume off the\n"
      "server's egress (P2P column ~= the reduce input volume); hash-only\n"
      "mode additionally removes it from the server's ingress. Reduce-phase\n"
      "advantage grows with intermediate volume (crossover: tiny inputs are\n"
      "dominated by protocol latency, where the variants tie).\n");
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  vcmr::run(argc > 1 ? std::atoi(argv[1]) : 3);
  return 0;
}
