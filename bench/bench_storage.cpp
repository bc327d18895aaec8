// E18 — Storage-tier sweep: sharded project data servers × volunteer
// replica store (vcmr::store) under trace-driven churn.
//
// The workload is the parameter-sweep shape (every map WU reads the SAME
// staged input file) where chunk distribution dominates project egress:
// with a single data server every map replica pulls the shared chunk
// through one access link. The sweep crosses shard count {1, 2, 4} with
// the volunteer replica store off/on, replaying the synthetic SETI-like
// availability trace (scenarios/traces/seti_day.csv) so serve points churn
// away mid-job. Per point it reports makespan, chunk egress by tier
// (project shards vs volunteer serve points, from the vcmr::obs metrics
// registry), store advert/gate counters, and simulator throughput
// (events/sec wall-clock).
//
// One JSON line per point on stdout (CI greps '^{'), plus a consolidated
// BENCH_STORAGE.json at the repository root: golden-pin row, sweep rows,
// the headline project-egress reduction, and an output-identity check of
// the volunteer store against the single-server oracle.
//
// Expected shape: the golden row reproduces the seed pins exactly (the
// storage tier defaults are inert); store=off rows send every chunk byte
// from the project tier regardless of shard count (sharding spreads load,
// it does not shed it); store=on rows move chunk egress to the volunteer
// tier — the headline point drives project egress down >= 10x — while
// every run still completes and the identity row matches the oracle
// byte-for-byte.

#include <chrono>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "server/jobtracker.h"
#include "store/store.h"

namespace vcmr {
namespace {

constexpr std::uint64_t kFirstSeed = 500;
constexpr Bytes kSharedInput = 20LL * 1000 * 1000;  // one 20 MB chunk
constexpr int kMaps = 64;

// The seti_day trace when run from the repository root; a synthetic
// equivalent (same shape as vcmr_tracegen's output) when run elsewhere.
std::string availability_csv(const char* path) {
  std::ifstream in(path);
  if (in) {
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  std::string csv;
  for (int h = 0; h < 6; ++h) {  // hosts 6,7 stay always-on
    const int off = 60 + 20 * h;
    csv += std::to_string(h) + ",0," + std::to_string(off) + "\n";
    csv += std::to_string(h) + "," + std::to_string(off + 40) + ",100000\n";
  }
  return csv;
}

core::Scenario storage_scenario(std::uint64_t seed, int shards, bool store_on,
                                const std::string& trace_csv) {
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 24;
  s.boinc_mr = true;
  s.data_servers.n_shards = shards;
  s.project.delay_bound = SimTime::minutes(10);
  s.project.resend_lost_results = true;
  s.project.report_fetch_failures = true;
  // Project egress below is pure chunk traffic: BOINC-MR reducers fetch map
  // outputs inter-client, and without mirroring nothing else is staged.
  s.project.mirror_map_outputs = false;
  // The seti_day trace permanently removes most hosts after their last
  // window; a tighter backoff cap keeps the survivors polling instead of
  // sleeping through the tail of the run.
  s.client.backoff_max = SimTime::seconds(120);
  if (store_on) {
    auto& vs = s.project.volunteer_store;
    vs.enabled = true;
    // Width 2 = the quorum pair: exactly two hosts bootstrap the chunk
    // server-sourced (enough to validate and mint trust), and the high
    // skip bound holds everyone else until a trusted replica can serve.
    vs.dispatch_gate_width = 2;
    vs.dispatch_max_skips = 128;
    vs.max_store_peers = 6;
    // A short TTL keeps the directory from handing out hosts the trace
    // already churned away (the backoff cap keeps live hosts refreshing
    // well inside it).
    vs.advert_ttl = SimTime::seconds(150);
    // Short jobs must be able to trust serve points (default reputation
    // needs 10 straight valids plus a decayed prior).
    s.project.reputation.min_consecutive_valid = 1;
    s.project.reputation.error_rate_prior = 0.0;
  }
  for (const auto& lf : fault::compile_availability_trace(trace_csv, s.n_nodes))
    s.faults.link_faults.push_back(lf);
  s.time_limit = SimTime::hours(12);
  return s;
}

server::MrJobSpec sweep_job(Bytes input_size = kSharedInput) {
  server::MrJobSpec spec;
  spec.name = "sweep";
  spec.n_maps = kMaps;
  spec.n_reducers = 2;
  spec.input_size = input_size;
  spec.shared_input = true;
  return spec;
}

/// Runs one (shards, store) point across the seeds, merges the clusters'
/// registries and renders the row from them — the same counters the
/// exporters see (no private stat struct). Outcome-level timings and the
/// per-point project/volunteer egress split stay byte-identical to the
/// historical emitter. Returns the JSON row; `project_egress_out` reports
/// the headline input.
std::string sweep_point(int n_seeds, int shards, bool store_on,
                        const std::string& trace_csv,
                        Bytes* project_egress_out) {
  obs::MetricsRegistry reg;
  int runs = 0, completed = 0;
  double makespan = 0, wall_s = 0;
  std::size_t events = 0;
  for (int i = 0; i < n_seeds; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Cluster cluster(
        storage_scenario(kFirstSeed + i, shards, store_on, trace_csv));
    const core::RunOutcome out = cluster.run_job(sweep_job());
    wall_s += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    ++runs;
    events += cluster.simulation().events_executed();
    reg.merge_from(cluster.metrics());
    if (!out.metrics.completed) continue;
    ++completed;
    makespan += out.metrics.total_seconds;
  }
  if (completed > 0) makespan /= completed;

  const Bytes project_egress =
      reg.counter_value("store", "tier_egress_bytes", {{"tier", "project"}});
  if (project_egress_out) *project_egress_out = project_egress;
  common::JsonWriter row;
  row.field("experiment", "E18")
      .field("shards", shards)
      .field("volunteer_store", store_on ? 1 : 0)
      .field("runs", runs)
      .field("completed", completed)
      .field("makespan_s", makespan)
      .field("project_egress_bytes", project_egress)
      .field("volunteer_egress_bytes",
             reg.counter_value("store", "tier_egress_bytes",
                               {{"tier", "volunteer"}}))
      .field("store_fetches", reg.counter_total("client", "store_fetches"))
      .field("store_misses", reg.counter_total("client", "store_misses"))
      .field("store_adverts", reg.counter_total("scheduler", "store_adverts"))
      .field("store_peers_attached",
             reg.counter_total("scheduler", "store_peers_attached"))
      .field("store_gate_skips",
             reg.counter_total("scheduler", "store_gate_skips"))
      .field("server_fallbacks",
             reg.counter_total("client", "server_fallbacks"))
      .field("events_executed", static_cast<std::int64_t>(events))
      .field("events_per_sec",
             wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0)
      .field("wall_clock_s", wall_s);
  return row.str();
}

// The seed golden trace: storage-tier defaults must be inert.
std::string golden_row() {
  core::Scenario s;
  s.seed = 11;
  s.n_nodes = 8;
  s.n_maps = 6;
  s.n_reducers = 2;
  s.input_size = 60LL * 1000 * 1000;
  s.boinc_mr = true;
  const auto t0 = std::chrono::steady_clock::now();
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const bool ok = out.metrics.completed &&
                  out.metrics.total_seconds == 205.092772 &&
                  out.server_bytes_sent == 120025909 &&
                  cluster.simulation().events_executed() == 455;
  common::JsonWriter row;
  row.field("experiment", "E18")
      .field("row", "golden_pin")
      .field("golden_ok", ok ? 1 : 0)
      .field("total_seconds", out.metrics.total_seconds)
      .field("server_bytes_sent", out.server_bytes_sent)
      .field("events_executed",
             static_cast<std::int64_t>(cluster.simulation().events_executed()))
      .field("events_per_sec",
             wall > 0
                 ? static_cast<double>(cluster.simulation().events_executed()) /
                       wall
                 : 0.0);
  return row.str();
}

// Byte-identity of the volunteer store against the single-server oracle on
// a small materialised corpus (modelled runs cannot be diffed).
std::string identity_row(const std::string& trace_csv) {
  common::RngStreamFactory f(77);
  common::Rng rng = f.stream("corpus");
  const std::string text = mr::ZipfCorpus().generate(150 * 1024, rng);
  server::MrJobSpec spec;
  spec.name = "identity";
  spec.n_maps = 6;
  spec.n_reducers = 2;
  spec.input_text = text;
  spec.shared_input = true;

  std::vector<mr::KeyValue> outputs[2];
  bool completed = true;
  for (const bool store_on : {false, true}) {
    core::Cluster cluster(
        storage_scenario(kFirstSeed, store_on ? 4 : 1, store_on, trace_csv));
    const core::RunOutcome out = cluster.run_job(spec);
    completed = completed && out.metrics.completed;
    outputs[store_on ? 1 : 0] = cluster.collect_output(out.job);
  }
  const bool identical =
      completed && !outputs[0].empty() && outputs[0] == outputs[1];
  common::JsonWriter row;
  row.field("experiment", "E18")
      .field("row", "output_identity")
      .field("completed", completed ? 1 : 0)
      .field("output_identical", identical ? 1 : 0)
      .field("pairs", static_cast<std::int64_t>(outputs[0].size()));
  return row.str();
}

void run(int n_seeds, const char* trace_path, const char* out_path) {
  const std::string trace_csv = availability_csv(trace_path);
  std::printf(
      "E18 — STORAGE TIER SWEEP (24 nodes, %d shared-input maps, 2 reducers,\n"
      "20 MB shared chunk, trace churn, %d seeds)\n"
      "one JSON line per (shards, volunteer_store) point\n\n",
      kMaps, n_seeds);

  std::vector<std::string> rows;
  rows.push_back(golden_row());
  std::printf("%s\n", rows.back().c_str());

  Bytes baseline_egress = 0;   // 1 shard, store off
  Bytes headline_egress = 0;   // max shards, store on
  for (const int shards : {1, 2, 4}) {
    for (const bool store_on : {false, true}) {
      Bytes project_egress = 0;
      rows.push_back(
          sweep_point(n_seeds, shards, store_on, trace_csv, &project_egress));
      if (shards == 1 && !store_on) baseline_egress = project_egress;
      if (shards == 4 && store_on) headline_egress = project_egress;
      std::printf("%s\n", rows.back().c_str());
    }
  }

  rows.push_back(identity_row(trace_csv));
  std::printf("%s\n", rows.back().c_str());

  const double reduction =
      headline_egress > 0
          ? static_cast<double>(baseline_egress) /
                static_cast<double>(headline_egress)
          : 0.0;
  std::printf("\nheadline: project chunk egress %lld -> %lld bytes "
              "(%.1fx reduction with 4 shards + volunteer store)\n",
              static_cast<long long>(baseline_egress),
              static_cast<long long>(headline_egress), reduction);

  // Consolidated machine-readable report at the repository root.
  std::string doc = "{\"experiment\": \"E18\", \"seeds\": " +
                    std::to_string(n_seeds) + ", \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) doc += ", ";
    doc += rows[i];
  }
  doc += "], \"headline\": ";
  common::JsonWriter headline;
  headline.field("baseline_project_egress_bytes", baseline_egress)
      .field("volunteer_store_project_egress_bytes", headline_egress)
      .field("egress_reduction_x", reduction);
  doc += headline.str();
  doc += "}\n";
  std::ofstream out(out_path);
  out << doc;
  std::printf("wrote %s\n", out_path);
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const int n_seeds = argc > 1 ? std::atoi(argv[1]) : 3;
  const char* trace = argc > 2 ? argv[2] : "scenarios/traces/seti_day.csv";
  const char* out = argc > 3 ? argv[3] : "BENCH_STORAGE.json";
  vcmr::run(n_seeds, trace, out);
  return 0;
}
