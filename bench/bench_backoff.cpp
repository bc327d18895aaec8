// E3 — Quantifies the §IV.B backoff pathology: how the exponential-backoff
// cap shapes report delays and the whole-job makespan when a single job
// periodically starves the scheduler.
//
// The paper observed delays "sometimes larger than the backoff interval
// (600 seconds)". Sweeping the cap shows the trade: small caps mean more
// scheduler RPCs (the congestion BOINC backs off to avoid), large caps mean
// long idle tails on every phase.

#include "bench_util.h"

namespace vcmr {
namespace {

void run_sweep(int n_seeds) {
  std::printf(
      "E3 — BACKOFF CAP SWEEP ((20,20,5), 1 GB, plain BOINC, %d seeds)\n\n",
      n_seeds);
  std::printf("%8s | %-12s %-12s %-12s | %6s | %10s | %10s\n", "cap (s)",
              "Map (s)", "Reduce (s)", "Total (s)", "gap", "RPCs/job",
              "backoffs");
  std::printf("%s\n", std::string(92, '=').c_str());

  for (const double cap : {60.0, 120.0, 300.0, 600.0, 1200.0, 2400.0}) {
    core::Scenario s;
    s.n_nodes = 20;
    s.n_maps = 20;
    s.n_reducers = 5;
    s.input_size = 1000LL * 1000 * 1000;
    s.client.backoff_max = SimTime::seconds(cap);
    const auto outcomes = bench::run_seeds(s, n_seeds);
    const bench::AveragedRow avg = bench::average(outcomes);
    double rpcs = 0, backoffs = 0;
    for (const auto& o : outcomes) {
      rpcs += static_cast<double>(o.scheduler_rpcs);
      backoffs += static_cast<double>(o.backoffs);
    }
    rpcs /= outcomes.size();
    backoffs /= outcomes.size();
    std::printf("%8.0f | %-12s %-12s %-12s | %6.0f | %10.0f | %10.0f\n", cap,
                bench::cell(avg.map_avg, avg.map_trimmed).c_str(),
                bench::cell(avg.reduce_avg, avg.reduce_trimmed).c_str(),
                bench::cell(avg.total, avg.total_trimmed).c_str(), avg.gap,
                rpcs, backoffs);
    common::JsonWriter()
        .field("experiment", "E3")
        .field("backoff_cap_s", cap)
        .field("seeds", avg.runs)
        .field("completed", avg.completed)
        .field("map_s", avg.map_avg)
        .field("reduce_s", avg.reduce_avg)
        .field("total_s", avg.total)
        .field("total_trimmed_s", avg.total_trimmed)
        .field("gap_s", avg.gap)
        .field("rpcs_per_job", rpcs)
        .field("backoffs_per_job", backoffs)
        .emit();
  }
  std::printf(
      "\nExpected shape: totals grow with the cap (stragglers wait longer to\n"
      "report) while scheduler RPC counts shrink — the congestion/latency\n"
      "trade the paper describes in IV.B.\n");
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  vcmr::run_sweep(argc > 1 ? std::atoi(argv[1]) : 5);
  return 0;
}
