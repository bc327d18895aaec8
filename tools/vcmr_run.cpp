// vcmr_run — run a VCMR scenario described by an XML file.
//
//   vcmr_run scenario.xml                 run it, print the metrics report
//   vcmr_run scenario.xml --snapshot p    ...and write the post-run project
//                                         database (XML) to p
//   vcmr_run scenario.xml --metrics-json p  ...and write the full telemetry
//                                           registry (JSON) to p
//   vcmr_run scenario.xml --trace-out p   ...and write a Chrome trace-event
//                                         JSON timeline to p (implies
//                                         record_trace)
//   vcmr_run scenario.xml --metrics-stream p [--stream-period s]
//                                         ...and append one JSON-lines
//                                         telemetry sample to p every s
//                                         simulated seconds (default 60)
//   vcmr_run --template                   print a fully populated scenario.xml
//   vcmr_run --echo scenario.xml          parse and print the normalized form
//   vcmr_run --help                       print usage and the exit contract
//
// Exit status: 0 on job completion, 2 on job failure/timeout or bad
// streaming flags (non-positive period, unwritable stream path), 1 on
// usage or parse errors.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/json.h"
#include "core/cluster.h"
#include "core/scenario_io.h"
#include "db/database.h"
#include "db/schema.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stream.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw vcmr::Error(std::string() + "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw vcmr::Error(std::string("cannot write ") + path);
  out << content;
}

void print_usage(std::FILE* to) {
  std::fputs(
      "usage: vcmr_run <scenario.xml> [--snapshot <db.xml>]\n"
      "                [--metrics-json <out.json>] [--trace-out <out.json>]\n"
      "                [--metrics-stream <out.jsonl>] [--stream-period <s>]\n"
      "       vcmr_run --template\n"
      "       vcmr_run --echo <scenario.xml>\n"
      "       vcmr_run --help\n",
      to);
}

int usage() {
  print_usage(stderr);
  return 1;
}

int help() {
  print_usage(stdout);
  std::fputs(
      "\n"
      "  --snapshot <db.xml>       write the post-run project database (XML)\n"
      "  --metrics-json <out>      write the run's telemetry registry as JSON\n"
      "                            (counters, gauges, histograms + job summary\n"
      "                            and the simulation's executed-event count)\n"
      "  --trace-out <out>         write a Chrome trace-event JSON timeline\n"
      "                            (chrome://tracing / Perfetto); implies\n"
      "                            record_trace for this run\n"
      "  --metrics-stream <out>    append one JSON-lines telemetry sample per\n"
      "                            sampling tick (sim time, events/sec, peak\n"
      "                            RSS, registry snapshot, live queue depths),\n"
      "                            flushed per row; with --trace-out the same\n"
      "                            samples render as Perfetto counter tracks\n"
      "  --stream-period <s>       simulated seconds between samples\n"
      "                            (default 60; requires --metrics-stream)\n"
      "\n"
      "exit status:\n"
      "  0  job completed\n"
      "  2  job failed or hit the scenario time limit; also a bad\n"
      "     --stream-period (non-positive or unparsable), --stream-period\n"
      "     without --metrics-stream, or an unwritable --metrics-stream path\n"
      "  1  usage or scenario-parse error\n",
      stdout);
  return 0;
}

void report(const vcmr::core::RunOutcome& out,
            const vcmr::obs::MetricsRegistry& reg) {
  const vcmr::core::JobMetrics& m = out.metrics;
  std::printf("status        : %s\n",
              m.completed ? "completed"
                          : (m.failed ? "FAILED" : "TIME LIMIT"));
  std::printf("map           : avg task %.1f s [trimmed %.1f s], span %.1f s "
              "(%d tasks)\n",
              m.map.avg_task_seconds, m.map.avg_task_seconds_trimmed,
              m.map.span_seconds, m.map.tasks);
  std::printf("reduce        : avg task %.1f s [trimmed %.1f s], span %.1f s "
              "(%d tasks)\n",
              m.reduce.avg_task_seconds, m.reduce.avg_task_seconds_trimmed,
              m.reduce.span_seconds, m.reduce.tasks);
  std::printf("phase gap     : %.1f s\n", m.map_to_reduce_gap_seconds);
  std::printf("total         : %.1f s [trimmed %.1f s]\n", m.total_seconds,
              m.total_seconds_trimmed);
  std::printf("server traffic: %.1f MB out, %.1f MB in\n",
              out.server_bytes_sent / 1e6, out.server_bytes_received / 1e6);
  std::printf("inter-client  : %.1f MB over %lld fetch attempts "
              "(%lld server fallbacks)\n",
              out.interclient_bytes / 1e6,
              static_cast<long long>(out.peer_fetch_attempts),
              static_cast<long long>(out.server_fallbacks));
  std::printf("scheduler     : %lld RPCs, %lld client backoffs\n",
              static_cast<long long>(out.scheduler_rpcs),
              static_cast<long long>(out.backoffs));
  if (out.results_lost > 0 || out.fetch_failures_reported > 0 ||
      out.maps_invalidated > 0) {
    std::printf("recovery      : %lld results lost and re-issued, "
                "%lld fetch failures reported, %lld maps invalidated\n",
                static_cast<long long>(out.results_lost),
                static_cast<long long>(out.fetch_failures_reported),
                static_cast<long long>(out.maps_invalidated));
  }
  const long long attempts = vcmr::net::connects(reg);
  if (attempts > 0) {
    const auto connects = [&reg](vcmr::net::ConnectTier tier) {
      return static_cast<long long>(vcmr::net::connects(reg, tier));
    };
    using vcmr::net::ConnectTier;
    std::printf("traversal     : %lld attempts (%lld direct, %lld reversal, "
                "%lld punched, %lld relayed, %lld failed)\n",
                attempts, connects(ConnectTier::kDirect),
                connects(ConnectTier::kReversal),
                connects(ConnectTier::kHolePunch),
                connects(ConnectTier::kRelay),
                connects(ConnectTier::kFailed));
  }
  const long long injected = vcmr::fault::injected(reg);
  if (injected > 0) {
    const auto faults = [&reg](const char* kind) {
      return static_cast<long long>(vcmr::fault::injections(reg, kind));
    };
    std::printf("faults        : %lld injected, %lld recovered "
                "(%lld link, %lld partition, %lld outage, %lld crash, "
                "%lld corrupt, %lld rpc drops)\n",
                injected, static_cast<long long>(vcmr::fault::recovered(reg)),
                faults("link_down"), faults("partition"),
                faults("server_down"), faults("crash"),
                faults("corrupt_upload"), faults("rpc_drop"));
    const long long correlated = faults("group_down");
    const long long degraded = faults("link_degrade");
    const long long traced = faults("trace_down");
    const long long crashes = faults("server_crash");
    if (correlated + degraded + traced + crashes > 0) {
      std::printf("                (%lld group, %lld degrade, %lld trace, "
                  "%lld server crash)\n",
                  correlated, degraded, traced, crashes);
    }
  }
}

const char* node_state(vcmr::wf::NodeOutcome::State s) {
  using State = vcmr::wf::NodeOutcome::State;
  switch (s) {
    case State::kWaiting: return "waiting";
    case State::kRunning: return "running";
    case State::kDone: return "done";
    case State::kFailed: return "failed";
    case State::kSkipped: return "skipped";
  }
  return "?";
}

void report_workflow(const vcmr::core::WorkflowRunResult& res) {
  std::printf("workflow      : %s, %.1f s, %zu nodes\n",
              res.completed ? "completed"
                            : (res.hit_time_limit ? "TIME LIMIT" : "FAILED"),
              res.total_seconds, res.nodes.size());
  for (const vcmr::wf::NodeOutcome& n : res.nodes) {
    std::int64_t backoffs = 0;
    for (const auto& r : n.runs) backoffs += r.backoffs;
    std::printf("  %-16s %-8s %d iteration(s)%s", n.name.c_str(),
                node_state(n.state), n.iterations,
                n.converged ? " [converged]" : "");
    if (!n.runs.empty()) {
      std::printf(", makespan %.1f s, dispatch wait %.1f s, %lld backoffs",
                  n.finished_at < vcmr::SimTime::infinity()
                      ? (n.finished_at - n.submitted_at).as_seconds()
                      : 0.0,
                  n.runs.front().dispatch_wait_s,
                  static_cast<long long>(backoffs));
    }
    std::printf("\n");
  }
}

std::string workflow_metrics_json(const std::string& scenario_path,
                                  const vcmr::core::WorkflowRunResult& res,
                                  std::size_t events_executed,
                                  const vcmr::obs::MetricsRegistry& reg) {
  using vcmr::common::JsonWriter;
  std::string nodes = "[";
  for (std::size_t i = 0; i < res.nodes.size(); ++i) {
    const vcmr::wf::NodeOutcome& n = res.nodes[i];
    std::int64_t backoffs = 0;
    for (const auto& r : n.runs) backoffs += r.backoffs;
    JsonWriter nw;
    nw.field("name", n.name)
        .field("state", node_state(n.state))
        .field("iterations", n.iterations)
        .field("converged", n.converged)
        .field("makespan_s", n.finished_at < vcmr::SimTime::infinity()
                                 ? (n.finished_at - n.submitted_at).as_seconds()
                                 : 0.0)
        .field("dispatch_wait_s",
               n.runs.empty() ? 0.0 : n.runs.front().dispatch_wait_s)
        .field("backoffs", backoffs)
        .field("output_bytes", n.output_bytes);
    if (i > 0) nodes += ",";
    nodes += nw.str();
  }
  nodes += "]";

  JsonWriter wfj;
  wfj.field("completed", res.completed)
      .field("hit_time_limit", res.hit_time_limit)
      .field("total_seconds", res.total_seconds)
      .field_json("nodes", nodes);

  JsonWriter top;
  top.field("scenario", scenario_path)
      .field("events_executed", static_cast<std::int64_t>(events_executed))
      .field_json("workflow", wfj.str())
      .field_json("registry", vcmr::obs::metrics_json(reg));
  return top.str() + "\n";
}

std::string run_metrics_json(const std::string& scenario_path,
                             const vcmr::core::RunOutcome& out,
                             std::size_t events_executed,
                             const vcmr::obs::MetricsRegistry& reg) {
  using vcmr::common::JsonWriter;
  JsonWriter job;
  job.field("completed", out.metrics.completed)
      .field("failed", out.metrics.failed)
      .field("hit_time_limit", out.hit_time_limit)
      .field("total_seconds", out.metrics.total_seconds)
      .field("server_bytes_sent", out.server_bytes_sent)
      .field("server_bytes_received", out.server_bytes_received)
      .field("scheduler_rpcs", out.scheduler_rpcs)
      .field("backoffs", out.backoffs)
      .field("results_lost", out.results_lost)
      .field("fetch_failures_reported", out.fetch_failures_reported)
      .field("maps_invalidated", out.maps_invalidated);

  JsonWriter top;
  top.field("scenario", scenario_path)
      .field("events_executed", static_cast<std::int64_t>(events_executed))
      .field_json("outcome", job.str())
      .field_json("registry", vcmr::obs::metrics_json(reg));
  return top.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcmr;
  if (argc < 2) return usage();
  const std::string arg = argv[1];
  try {
    if (arg == "--help" || arg == "-h") return help();
    if (arg == "--template") {
      core::Scenario s;
      std::fputs(core::scenario_to_xml(s).c_str(), stdout);
      return 0;
    }
    if (arg == "--echo") {
      if (argc < 3) return usage();
      const core::Scenario s = core::scenario_from_xml(read_file(argv[2]));
      std::fputs(core::scenario_to_xml(s).c_str(), stdout);
      return 0;
    }
    if (arg.rfind("--", 0) == 0) return usage();

    std::string snapshot_path, metrics_path, trace_path;
    std::string stream_path, stream_period_str;
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      std::string* dest = nullptr;
      if (flag == "--snapshot") dest = &snapshot_path;
      else if (flag == "--metrics-json") dest = &metrics_path;
      else if (flag == "--trace-out") dest = &trace_path;
      else if (flag == "--metrics-stream") dest = &stream_path;
      else if (flag == "--stream-period") dest = &stream_period_str;
      if (dest == nullptr || i + 1 >= argc) return usage();
      *dest = argv[++i];
    }

    // Streaming-flag contract: configuration mistakes exit 2 with a
    // message before any simulation work happens.
    double stream_period_s = 60.0;
    if (!stream_period_str.empty()) {
      if (stream_path.empty()) {
        std::fprintf(stderr,
                     "vcmr_run: --stream-period requires --metrics-stream\n");
        return 2;
      }
      char* end = nullptr;
      stream_period_s = std::strtod(stream_period_str.c_str(), &end);
      if (end == stream_period_str.c_str() || *end != '\0' ||
          !(stream_period_s > 0)) {
        std::fprintf(stderr,
                     "vcmr_run: bad --stream-period '%s' (want a positive "
                     "number of simulated seconds)\n",
                     stream_period_str.c_str());
        return 2;
      }
    }
    std::ofstream stream_out;
    if (!stream_path.empty()) {
      stream_out.open(stream_path);
      if (!stream_out) {
        std::fprintf(stderr, "vcmr_run: cannot write --metrics-stream %s\n",
                     stream_path.c_str());
        return 2;
      }
    }

    common::LogConfig::instance().set_level(common::LogLevel::kWarn);
    core::Scenario s = core::scenario_from_xml(read_file(arg));
    if (!trace_path.empty()) s.record_trace = true;
    std::printf("scenario: %d nodes, %d maps, %d reducers, %lld MB, %s "
                "clients, seed %llu\n\n",
                s.n_nodes, s.n_maps, s.n_reducers,
                static_cast<long long>(s.input_size / 1000000),
                s.boinc_mr ? "BOINC-MR" : "plain BOINC",
                static_cast<unsigned long long>(s.seed));

    core::Cluster cluster(s);

    std::unique_ptr<obs::MetricsStreamer> streamer;
    if (!stream_path.empty()) {
      obs::MetricsStreamer::Options opt;
      opt.period = SimTime::seconds(stream_period_s);
      opt.counter_tracks = !trace_path.empty();
      streamer = std::make_unique<obs::MetricsStreamer>(cluster.simulation(),
                                                        stream_out, opt);
      const db::Database& database = cluster.project().database();
      // Ready results waiting for a scheduler RPC: the feeder's ready
      // queues, one size read per job shard.
      streamer->add_probe("db/ready_results", [&database] {
        std::size_t n = database.unsent_audit().size();
        for (const auto& [job, ids] : database.unsent_bulk_by_job()) {
          n += ids.size();
        }
        return static_cast<double>(n);
      });
      // In-flight results: a full scan, but only streaming runs pay for it.
      streamer->add_probe("db/in_flight_results", [&database] {
        std::int64_t n = 0;
        database.for_each_result([&n](const db::ResultRecord& r) {
          if (r.server_state == db::ServerState::kInProgress) ++n;
        });
        return static_cast<double>(n);
      });
    }

    bool ok = false;
    if (!s.workflow.empty()) {
      // A <workflow> block takes over: run the DAG / iterative coordinator
      // instead of the single flat job.
      const core::WorkflowRunResult res = cluster.run_workflow();
      // Final row lands after the run settles so end-of-run roll-up gauges
      // match what --metrics-json reports.
      if (streamer) streamer->finish();
      report_workflow(res);
      ok = res.completed;
      if (!metrics_path.empty()) {
        write_file(metrics_path,
                   workflow_metrics_json(
                       arg, res, cluster.simulation().events_executed(),
                       cluster.metrics()));
        std::printf("metrics json  : %s\n", metrics_path.c_str());
      }
    } else {
      const core::RunOutcome out = cluster.run_job();
      if (streamer) streamer->finish();
      report(out, cluster.metrics());
      ok = out.metrics.completed;
      if (!metrics_path.empty()) {
        write_file(metrics_path,
                   run_metrics_json(arg, out,
                                    cluster.simulation().events_executed(),
                                    cluster.metrics()));
        std::printf("metrics json  : %s\n", metrics_path.c_str());
      }
    }
    if (streamer) {
      std::printf("metrics stream: %s (%lld samples, every %g sim s)\n",
                  stream_path.c_str(),
                  static_cast<long long>(streamer->samples()),
                  stream_period_s);
    }

    if (!snapshot_path.empty()) {
      write_file(snapshot_path, cluster.project().database().save());
      std::printf("database snapshot: %s\n", snapshot_path.c_str());
    }
    if (!trace_path.empty()) {
      write_file(trace_path,
                 obs::chrome_trace_json(
                     cluster.trace(),
                     streamer ? streamer->counter_samples()
                              : std::vector<obs::CounterSample>{}) +
                     "\n");
      std::printf("chrome trace  : %s\n", trace_path.c_str());
    }
    return ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcmr_run: %s\n", e.what());
    return 1;
  }
}
