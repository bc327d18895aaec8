// E14 — Ablation: data-locality-aware reduce scheduling.
//
// A reducer that also ran map tasks already holds some validated map
// outputs on local disk; assigning it the matching reduce partition turns
// those fetches into local reads. The scheduler's delay-scheduling variant
// (ProjectConfig::locality_aware_reduce) defers a reduce result a few RPCs
// waiting for such a holder. The win scales with maps-per-node: with M
// maps on N nodes a holder saves ~(M/N)/M of the partition volume.

#include "bench_util.h"

namespace vcmr {
namespace {

void run(int n_seeds) {
  std::printf("E14 — LOCALITY-AWARE REDUCE SCHEDULING (BOINC-MR, 1 GB, %d "
              "seeds)\n\n", n_seeds);
  std::printf("%6s %5s %5s | %-9s | %-12s %-12s | %9s %9s | %8s %8s\n",
              "nodes", "#Map", "#Red", "locality", "Reduce (s)", "Total (s)",
              "P2P MB", "Local MB", "hits", "skips");
  std::printf("%s\n", std::string(98, '=').c_str());

  for (const auto& [nodes, maps, reds] :
       std::vector<std::tuple<int, int, int>>{
           {10, 40, 5}, {20, 20, 5}, {20, 80, 10}}) {
    for (const bool locality : {false, true}) {
      double reduce_avg = 0, reduce_trim = 0, total = 0, total_trim = 0,
             p2p = 0, local_mb = 0, hits = 0, skips = 0;
      int ok = 0;
      for (int i = 0; i < n_seeds; ++i) {
        core::Scenario s;
        s.seed = 70 + static_cast<std::uint64_t>(i);
        s.n_nodes = nodes;
        s.n_maps = maps;
        s.n_reducers = reds;
        s.input_size = 1000LL * 1000 * 1000;
        s.boinc_mr = true;
        s.project.locality_aware_reduce = locality;
        core::Cluster cluster(s);
        const core::RunOutcome out = cluster.run_job();
        if (!out.metrics.completed) continue;
        ++ok;
        reduce_avg += out.metrics.reduce.avg_task_seconds;
        reduce_trim += out.metrics.reduce.avg_task_seconds_trimmed;
        total += out.metrics.total_seconds;
        total_trim += out.metrics.total_seconds_trimmed;
        p2p += static_cast<double>(out.interclient_bytes) / 1e6;
        local_mb += static_cast<double>(out.local_read_bytes) / 1e6;
        hits += static_cast<double>(
            cluster.metrics().counter_value("scheduler", "locality_hits"));
        skips += static_cast<double>(
            cluster.metrics().counter_value("scheduler", "locality_skips"));
      }
      if (ok > 0) {
        reduce_avg /= ok;
        reduce_trim /= ok;
        total /= ok;
        total_trim /= ok;
        p2p /= ok;
        local_mb /= ok;
        hits /= ok;
        skips /= ok;
      }
      std::printf("%6d %5d %5d | %-9s | %-12s %-12s | %9.0f %9.0f | %8.1f %8.1f\n",
                  nodes, maps, reds, locality ? "on" : "off",
                  bench::cell(reduce_avg, reduce_trim).c_str(),
                  bench::cell(total, total_trim).c_str(), p2p, local_mb, hits,
                  skips);
    }
    std::printf("%s\n", std::string(98, '-').c_str());
  }
  std::printf(
      "\nExpected shape: locality scheduling raises Local MB and trims P2P,\n"
      "but hash partitioning spreads every map's output over all reducers,\n"
      "so the win is bounded by maps-per-node/n_maps of the shuffle volume\n"
      "(~10%% here) — an honest negative: placement is not where volunteer\n"
      "MapReduce wins, the server-offload of E6 is.\n");
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  vcmr::run(argc > 1 ? std::atoi(argv[1]) : 3);
  return 0;
}
