// E19 — WORKFLOW DEPTH vs THE BACKOFF STRAGGLER (vcmr::wf).
//
// §IV.B's pathology: when the scheduler runs out of work, mid-run clients
// back off exponentially (600 s cap) and the job waits on the last
// straggler's next poll. A workflow makes this *compound*: every stage
// boundary is a fresh "no work yet" window — the downstream job is created
// the instant the upstream's last reduce is assimilated, but the fleet only
// learns on its next scheduler RPC, so each extra stage pays the same
// dispatch-wait tail again. With the word_count cost model shrinking data
// 20x per stage, deep chains are pure coordination floor: stage compute
// falls to nothing while per-stage dispatch wait and backoff draws stay
// flat, replaying Fig. 4's idle tails once per stage.
//
// Sweep: linear chains of depth {1, 2, 4, 8} under the seti_day availability
// trace (volunteers come and go; most of the fleet leaves for good after its
// last window). Reported per depth: workflow makespan, per-stage makespan /
// dispatch-wait / backoff-draw means, and the amplification of the depth-1
// makespan. A single-node identity row pins the workflow path itself: one
// node driven through the coordinator must replay run_job bit for bit
// (same simulated seconds, same wire bytes, same event count).
//
// Writes BENCH_WORKFLOW.json (JSON-lines rows + consolidated doc) at the
// repository root by default.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "fault/fault.h"
#include "workflow/workflow.h"

namespace vcmr {
namespace {

constexpr std::uint64_t kFirstSeed = 700;
constexpr int kNodes = 20;
constexpr Bytes kRootInput = 200LL * 1000 * 1000;

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
  for (int h = 0; h < 12; ++h) {  // the rest of the fleet stays always-on
    const int off = 300 + 120 * h;
    csv += std::to_string(h) + ",0," + std::to_string(off) + "\n";
    csv += std::to_string(h) + "," + std::to_string(off + 600) + ",200000\n";
  }
  return csv;
}

core::Scenario chain_scenario(std::uint64_t seed, const std::string& trace) {
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = kNodes;
  s.boinc_mr = true;
  for (const auto& lf : fault::compile_availability_trace(trace, s.n_nodes))
    s.faults.link_faults.push_back(lf);
  s.time_limit = SimTime::hours(48);
  return s;
}

wf::WorkflowGraph chain_graph(int depth) {
  std::vector<server::MrJobSpec> specs;
  for (int k = 0; k < depth; ++k) {
    server::MrJobSpec spec;
    spec.name = "stage" + std::to_string(k);
    spec.app = "word_count";
    spec.n_maps = 12;
    spec.n_reducers = 3;
    if (k == 0) spec.input_size = kRootInput;
    specs.push_back(spec);
  }
  return wf::linear_workflow(std::move(specs));
}

struct DepthPoint {
  int runs = 0;
  int completed = 0;
  double makespan = 0;  ///< mean workflow total, completed runs
  std::vector<double> stage_makespan;       ///< per stage index, mean
  std::vector<double> stage_dispatch_wait;  ///< per stage index, mean
  std::vector<double> stage_backoffs;       ///< per stage index, mean
  std::int64_t events = 0;
  double wall_s = 0;
};

DepthPoint sweep_depth(int depth, int n_seeds, const std::string& trace) {
  DepthPoint p;
  p.stage_makespan.assign(static_cast<std::size_t>(depth), 0);
  p.stage_dispatch_wait.assign(static_cast<std::size_t>(depth), 0);
  p.stage_backoffs.assign(static_cast<std::size_t>(depth), 0);
  for (int i = 0; i < n_seeds; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Cluster cluster(
        chain_scenario(kFirstSeed + static_cast<std::uint64_t>(i), trace));
    const core::WorkflowRunResult r = cluster.run_workflow(chain_graph(depth));
    p.wall_s += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ++p.runs;
    p.events += static_cast<std::int64_t>(cluster.simulation().events_executed());
    if (!r.completed) continue;
    ++p.completed;
    p.makespan += r.total_seconds;
    for (int k = 0; k < depth; ++k) {
      const wf::NodeRun& run = r.nodes[static_cast<std::size_t>(k)].runs.at(0);
      p.stage_makespan[static_cast<std::size_t>(k)] += run.makespan_s;
      p.stage_dispatch_wait[static_cast<std::size_t>(k)] +=
          run.dispatch_wait_s;
      p.stage_backoffs[static_cast<std::size_t>(k)] +=
          static_cast<double>(run.backoffs);
    }
  }
  if (p.completed > 0) {
    p.makespan /= p.completed;
    for (auto& v : p.stage_makespan) v /= p.completed;
    for (auto& v : p.stage_dispatch_wait) v /= p.completed;
    for (auto& v : p.stage_backoffs) v /= p.completed;
  }
  return p;
}

std::string array_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += common::strprintf("%.6g", v[i]);
  }
  return out + "]";
}

double mean(const std::vector<double>& v, std::size_t from) {
  if (v.size() <= from) return 0;
  double sum = 0;
  for (std::size_t i = from; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - from);
}

std::string depth_row(int depth, double depth1_makespan,
                      const DepthPoint& p) {
  common::JsonWriter row;
  row.field("experiment", "E19")
      .field("depth", depth)
      .field("runs", p.runs)
      .field("completed", p.completed)
      .field("makespan_s", p.makespan)
      .field("amplification_x",
             depth1_makespan > 0 ? p.makespan / depth1_makespan : 0.0)
      .field("tail_stage_makespan_s", mean(p.stage_makespan, 1))
      .field("tail_stage_dispatch_wait_s", mean(p.stage_dispatch_wait, 1))
      .field_json("stage_makespan_s", array_json(p.stage_makespan))
      .field_json("stage_dispatch_wait_s", array_json(p.stage_dispatch_wait))
      .field_json("stage_backoffs", array_json(p.stage_backoffs))
      .field("events_executed", p.events)
      .field("events_per_sec",
             p.wall_s > 0 ? static_cast<double>(p.events) / p.wall_s : 0.0)
      .field("wall_clock_s", p.wall_s);
  return row.str();
}

// Identity pin: one workflow node must replay the direct run_job event
// stream bit for bit — same simulated makespan, same server wire bytes,
// same total event count, same backoff draws.
std::string identity_row() {
  server::MrJobSpec spec;
  spec.name = "solo";
  spec.app = "word_count";
  spec.n_maps = 12;
  spec.n_reducers = 3;
  spec.input_size = 60LL * 1000 * 1000;

  core::Scenario s;
  s.seed = 41;
  s.n_nodes = 8;
  s.boinc_mr = true;

  core::Cluster direct(s);
  const core::RunOutcome a = direct.run_job(spec);
  const std::int64_t events_a =
      static_cast<std::int64_t>(direct.simulation().events_executed());

  core::Cluster via_wf(s);
  wf::NodeSpec node;
  node.job = spec;
  const core::WorkflowRunResult r =
      via_wf.run_workflow(wf::WorkflowGraph({node}));
  const core::RunOutcome b =
      r.nodes.at(0).runs.empty()
          ? core::RunOutcome{}
          : via_wf.job_outcome(r.nodes[0].runs[0].job, true);
  const std::int64_t events_b =
      static_cast<std::int64_t>(via_wf.simulation().events_executed());

  const bool ok = a.metrics.completed && r.completed &&
                  a.metrics.total_seconds == b.metrics.total_seconds &&
                  a.server_bytes_sent == b.server_bytes_sent &&
                  a.server_bytes_received == b.server_bytes_received &&
                  a.backoffs == b.backoffs && events_a == events_b;
  common::JsonWriter row;
  row.field("experiment", "E19")
      .field("row", "identity_single_node")
      .field("identity_ok", ok ? 1 : 0)
      .field("direct_total_seconds", a.metrics.total_seconds)
      .field("workflow_total_seconds", b.metrics.total_seconds)
      .field("direct_events", events_a)
      .field("workflow_events", events_b)
      .field("server_bytes_sent", a.server_bytes_sent);
  return row.str();
}

void run(int n_seeds, const char* trace_path, const char* out_path) {
  const std::string trace = availability_csv(trace_path);
  std::printf("E19 — WORKFLOW DEPTH vs BACKOFF STRAGGLER (%d nodes, "
              "%lld MB root input, seti_day churn, %d seeds)\n\n",
              kNodes, static_cast<long long>(kRootInput / 1000000), n_seeds);
  std::printf("%6s | %6s | %12s | %8s | %14s | %16s\n", "depth", "done",
              "makespan (s)", "amp (x)", "tail stage(s)", "tail wait (s)");
  std::printf("%s\n", std::string(76, '=').c_str());

  std::vector<std::string> rows;
  rows.push_back(identity_row());

  double depth1_makespan = 0;
  double depth8_makespan = 0, depth8_tail_wait = 0;
  for (const int depth : {1, 2, 4, 8}) {
    const DepthPoint p = sweep_depth(depth, n_seeds, trace);
    if (depth == 1) depth1_makespan = p.makespan;
    if (depth == 8) {
      depth8_makespan = p.makespan;
      depth8_tail_wait = mean(p.stage_dispatch_wait, 1);
    }
    rows.push_back(depth_row(depth, depth1_makespan, p));
    std::printf("%6d | %3d/%-2d | %12.0f | %8.2f | %14.0f | %16.0f\n", depth,
                p.completed, p.runs, p.makespan,
                depth1_makespan > 0 ? p.makespan / depth1_makespan : 0.0,
                mean(p.stage_makespan, 1), mean(p.stage_dispatch_wait, 1));
  }

  std::printf(
      "\nExpected shape: stages beyond the first carry ~20x less data, yet\n"
      "each still pays a dispatch-wait + backoff-drain floor — makespan\n"
      "amplification grows far faster than the shrinking per-stage compute\n"
      "justifies. That floor is §IV.B's Fig. 4 idle tail, charged once per\n"
      "stage boundary.\n");

  // Consolidated machine-readable report at the repository root.
  std::string doc = "{\"experiment\": \"E19\", \"seeds\": " +
                    std::to_string(n_seeds) + ", \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) doc += ", ";
    doc += rows[i];
  }
  doc += "], \"headline\": ";
  common::JsonWriter headline;
  headline.field("depth1_makespan_s", depth1_makespan)
      .field("depth8_makespan_s", depth8_makespan)
      .field("depth8_amplification_x",
             depth1_makespan > 0 ? depth8_makespan / depth1_makespan : 0.0)
      .field("depth8_tail_stage_dispatch_wait_s", depth8_tail_wait);
  doc += headline.str();
  doc += "}\n";
  std::ofstream out(out_path);
  out << doc;
  std::printf("wrote %s\n", out_path);

  for (const auto& r : rows) std::printf("%s\n", r.c_str());
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const int n_seeds = argc > 1 ? std::atoi(argv[1]) : 3;
  const char* trace = argc > 2 ? argv[2] : "scenarios/traces/seti_day.csv";
  const char* out = argc > 3 ? argv[3] : "BENCH_WORKFLOW.json";
  vcmr::run(n_seeds, trace, out);
  return 0;
}
