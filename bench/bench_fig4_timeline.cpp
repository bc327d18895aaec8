// E2 — Reproduces Fig. 4: per-node map-task timeline for the 15-map-WU
// experiment (30 results over 15 nodes).
//
// The figure's point: "one node did not report the completion of its tasks
// due to the backoff interval, and consequently delayed the beginning of
// the reduce step". We print (a) the per-result assign/upload/report table,
// (b) the upload→report delay distribution, and (c) an ASCII Gantt chart of
// the map phase showing compute (C), transfers (D/U) and backoff (B)
// windows, with the straggler visible as a long B run before its report.

#include <algorithm>
#include <map>

#include "bench_util.h"

namespace vcmr {
namespace {

void run_fig4(std::uint64_t seed) {
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 15;
  s.n_maps = 15;
  s.n_reducers = 3;
  s.input_size = 1000LL * 1000 * 1000;
  s.boinc_mr = false;
  s.record_trace = true;

  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  const core::JobMetrics& m = out.metrics;

  std::printf("FIG 4 — MAP TASK TIMELINE (15 map WUs -> 30 results, seed %llu)\n\n",
              static_cast<unsigned long long>(seed));

  // Upload instants come from the trace ("uploaded" points).
  std::map<std::string, double> uploaded_at;
  for (const auto& p : cluster.trace().points()) {
    if (p.label == "uploaded") uploaded_at[p.detail] = p.at.as_seconds();
  }

  std::printf("%-14s %-8s %9s %9s %9s %10s %12s\n", "result", "host",
              "assigned", "uploaded", "reported", "interval",
              "report delay");
  common::Summary delays;
  double max_delay = 0;
  std::string straggler;
  for (const auto& t : m.map_tasks) {
    const auto it = uploaded_at.find(t.result_name);
    const double up = it != uploaded_at.end() ? it->second : t.received_seconds;
    const double delay = t.received_seconds - up;
    delays.add(delay);
    if (delay > max_delay) {
      max_delay = delay;
      straggler = t.host_name;
    }
    std::printf("%-14s %-8s %9.1f %9.1f %9.1f %10.1f %12.1f\n",
                t.result_name.c_str(), t.host_name.c_str(), t.sent_seconds,
                up, t.received_seconds, t.interval(), delay);
    common::JsonWriter()
        .field("experiment", "E2")
        .field("result", t.result_name)
        .field("host", t.host_name)
        .field("assigned_s", t.sent_seconds)
        .field("uploaded_s", up)
        .field("reported_s", t.received_seconds)
        .field("interval_s", t.interval())
        .field("report_delay_s", delay)
        .emit();
  }

  common::JsonWriter()
      .field("experiment", "E2")
      .field("summary", true)
      .field("seed", static_cast<std::int64_t>(seed))
      .field("straggler", straggler)
      .field("max_report_delay_s", max_delay)
      .field("map_span_s", m.map.span_seconds)
      .field("map_span_trimmed_s", m.map.span_seconds_trimmed)
      .field("gap_s", m.map_to_reduce_gap_seconds)
      .emit();
  std::printf("\nupload->report delay: %s\n", delays.str().c_str());
  std::printf("slowest reporter: %s (delayed its report by %.0f s; backoff cap "
              "is %.0f s)\n",
              straggler.c_str(), max_delay,
              s.client.backoff_max.as_seconds());
  std::printf("map phase span %.0f s (trimmed %.0f s); reduce started %.0f s "
              "after the last map report\n",
              m.map.span_seconds, m.map.span_seconds_trimmed,
              m.map_to_reduce_gap_seconds);

  // Gantt over the map phase plus the transition into reduce.
  double t1 = 0;
  for (const auto& t : m.map_tasks) t1 = std::max(t1, t.received_seconds);
  std::printf("\n%s\n",
              cluster.trace()
                  .ascii_gantt(SimTime::zero(), SimTime::seconds(t1 * 1.05), 110)
                  .c_str());
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  vcmr::run_fig4(seed);
  return 0;
}
