// E1 — Reproduces Table I: "Word Count Makespan".
//
// Runs the paper's exact grid — 1 GB word-count input, (nodes, map WUs,
// reduce WUs) ∈ {(10,10,2), (10,20,2), (15,15,3), (15,30,3), (20,20,5),
// (20,40,5), (30,30,7), (30,40,5)} with plain BOINC clients, plus
// (20,20,5) under BOINC-MR — and prints Map/Reduce/Total time in the
// paper's format: the raw average with the discard-slowest-node variant
// in brackets. Replication is 2 with quorum 2, as in §IV.A ("Each work
// unit is replicated into 2 results/instances").
//
// Absolute seconds differ from the authors' Emulab testbed; the shapes to
// check are (a) trimmed averages well below raw ones (backoff stragglers),
// (b) an idle gap between phases, and (c) BOINC-MR's faster reduce phase
// with comparable totals at (20,20,5).

#include "bench_util.h"

namespace vcmr {
namespace {

struct Row {
  int nodes, maps, reds;
  bool boinc_mr;
};

void run_table(int n_seeds) {
  const std::vector<Row> rows = {
      {10, 10, 2, false}, {10, 20, 2, false}, {15, 15, 3, false},
      {15, 30, 3, false}, {20, 20, 5, false}, {20, 40, 5, false},
      {30, 30, 7, false}, {30, 40, 5, false},
      {20, 20, 5, true},  // the BOINC-MR row
  };

  std::printf(
      "TABLE I — WORD COUNT MAKESPAN (1 GB input, replication 2, quorum 2; "
      "%d seeds averaged)\n\n",
      n_seeds);
  std::printf("%-9s %5s %5s %5s | %-12s %-12s %-12s | %6s | %9s %9s %9s\n",
              "Client", "Nodes", "#Map", "#Red", "Map Time", "Reduce Time",
              "Total Time", "Gap", "SrvOut", "SrvIn", "P2P");
  std::printf("%-9s %5s %5s %5s | %-12s %-12s %-12s | %6s | %9s %9s %9s\n",
              "", "", "WUs", "WUs", "(s)", "(s)", "(s)", "(s)", "(MB)",
              "(MB)", "(MB)");
  std::printf("%s\n", std::string(110, '=').c_str());

  for (const Row& r : rows) {
    core::Scenario s;
    s.n_nodes = r.nodes;
    s.n_maps = r.maps;
    s.n_reducers = r.reds;
    s.input_size = 1000LL * 1000 * 1000;
    s.boinc_mr = r.boinc_mr;
    const auto outcomes = bench::run_seeds(s, n_seeds);
    const bench::AveragedRow avg = bench::average(outcomes);
    std::printf("%-9s %5d %5d %5d | %-12s %-12s %-12s | %6.0f | %9.0f %9.0f %9.0f\n",
                r.boinc_mr ? "BOINC-MR" : "BOINC", r.nodes, r.maps, r.reds,
                bench::cell(avg.map_avg, avg.map_trimmed).c_str(),
                bench::cell(avg.reduce_avg, avg.reduce_trimmed).c_str(),
                bench::cell(avg.total, avg.total_trimmed).c_str(), avg.gap,
                avg.server_out_mb, avg.server_in_mb, avg.interclient_mb);
    common::JsonWriter()
        .field("experiment", "E1")
        .field("client", r.boinc_mr ? "BOINC-MR" : "BOINC")
        .field("nodes", r.nodes)
        .field("maps", r.maps)
        .field("reducers", r.reds)
        .field("seeds", avg.runs)
        .field("completed", avg.completed)
        .field("map_s", avg.map_avg)
        .field("map_trimmed_s", avg.map_trimmed)
        .field("reduce_s", avg.reduce_avg)
        .field("reduce_trimmed_s", avg.reduce_trimmed)
        .field("total_s", avg.total)
        .field("total_trimmed_s", avg.total_trimmed)
        .field("gap_s", avg.gap)
        .field("server_out_mb", avg.server_out_mb)
        .field("server_in_mb", avg.server_in_mb)
        .field("interclient_mb", avg.interclient_mb)
        .emit();
  }

  std::printf(
      "\nPaper reference (BOINC rows: map/reduce/total, brackets = slowest "
      "node discarded):\n"
      "  (10,10,2) 484/337/1121      (10,20,2) 376/349/1133\n"
      "  (15,15,3) 747[396]/604[312]/1529[1011]\n"
      "  (15,30,3) 983[364]/322/1378[758]\n"
      "  (20,20,5) 383/455[341]/1111[997]   (20,40,5) 649[360]/700[391]/1681[1083]\n"
      "  (30,30,7) 716[373]/345/1373[1030]  (30,40,5) 368/399/1174\n"
      "  BOINC-MR (20,20,5) 612/318/1216\n");
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 5;
  vcmr::run_table(seeds);
  return 0;
}
