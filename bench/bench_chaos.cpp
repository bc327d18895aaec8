// E16 — Chaos sweep: makespan degradation and recovery time vs fault rate.
//
// Drives the vcmr::fault engine over the Table-I-style 8-node word-count
// job and sweeps each fault family's intensity: client crashes, scheduler
// RPC loss, upload corruption, data-server outages, link flapping,
// correlated group failures (vs the same hosts failing independently),
// bandwidth degradation, trace-driven availability churn, and scheduler
// crash/restore. For every (family, intensity) point the sweep reports
// completion rate, average makespan, degradation and recovery time versus
// the same seeds with no faults, and the injected/recovered fault counters
// — one JSON line per point (machine-readable, diffable across runs).
//
// "Recovery time" is the chaos run's makespan minus the fault-free
// makespan of the identical seed: the extra wall-clock the fleet spent
// re-downloading, re-executing, and re-validating work the faults
// destroyed. Everything is deterministic per seed; rerunning this binary
// reproduces every line bit-for-bit.
//
// `--jobs N` runs the (point, seed) grid on a bench::SeedPool — every
// seed is an independent simulation — and reduces results in seed order,
// so rows and the BENCH doc are byte-identical at every N, `--jobs 1`
// (one worker) included. Only the headline's wall-clock fields
// (jobs / wall_s / points_wall_s / parallel_speedup_x) depend on N.

#include <chrono>

#include "bench_util.h"
#include "seed_pool.h"

namespace vcmr {
namespace {

constexpr std::uint64_t kFirstSeed = 300;

core::Scenario chaos_scenario(std::uint64_t seed) {
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 8;
  s.n_maps = 6;
  s.n_reducers = 2;
  s.input_size = 60LL * 1000 * 1000;
  s.boinc_mr = true;
  // Crash recovery rides the transitioner's deadline pass; the default 4 h
  // bound would park lost work until long after the fault-free makespan.
  s.project.delay_bound = SimTime::minutes(5);
  // Corruption burns error budget; leave quorums room to retry.
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  s.time_limit = SimTime::hours(6);
  return s;
}

/// One (point, seed) simulation's outcome-level result and its cluster's
/// registry.
struct SeedRun {
  bool completed = false;
  double total_seconds = 0;
  double wall_s = 0;  ///< real time this simulation took
  obs::MetricsRegistry metrics;
};

/// Outcome-level aggregates. Timings come from JobMetrics; every fault and
/// recovery counter in the emitted row is read back from the registry.
struct Timings {
  int runs = 0;
  int completed = 0;
  double makespan = 0;       ///< avg over completed runs
  double recovery = 0;       ///< avg makespan - baseline, completed runs
};

/// One sweep point: a fault family at one intensity, applied to the base
/// scenario. The full sweep is a flat (point, seed) task grid.
struct PointSpec {
  std::string family;
  double intensity = 0;
  std::function<void(core::Scenario&)> apply;
  double* recovery_out = nullptr;  ///< headline hook (crash3 / crash_fast3)
};

SeedRun run_chaos_seed(const PointSpec& p, int seed_index) {
  const auto t0 = std::chrono::steady_clock::now();
  core::Scenario s = chaos_scenario(kFirstSeed + seed_index);
  p.apply(s);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  SeedRun r;
  r.completed = out.metrics.completed;
  r.total_seconds = out.metrics.total_seconds;
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.metrics = cluster.metrics();
  return r;
}

/// Folds one seed's result into the point aggregate, in seed order, so the
/// floating-point operation order never depends on --jobs.
void fold_seed(const SeedRun& r, double baseline_i, Timings* t) {
  ++t->runs;
  if (!r.completed) return;
  ++t->completed;
  t->makespan += r.total_seconds;
  t->recovery += r.total_seconds - baseline_i;
}

void finish_point(const PointSpec& p, Timings* t) {
  if (t->completed > 0) {
    t->makespan /= t->completed;
    t->recovery /= t->completed;
  }
  if (p.recovery_out) *p.recovery_out = t->recovery;
}

/// Renders one point's JSON row from its aggregates and merged registry.
/// Field names and values match the historical private-struct emitter
/// exactly (each fault counter is one fault/injections{kind} label).
std::string render_row(const PointSpec& p, const Timings& t, double base_avg,
                       const obs::MetricsRegistry& reg) {
  return common::JsonWriter()
      .field("experiment", "E16")
      .field("fault", p.family)
      .field("intensity", p.intensity)
      .field("runs", t.runs)
      .field("completed", t.completed)
      .field("baseline_s", base_avg)
      .field("makespan_s", t.makespan)
      .field("degradation_pct",
             base_avg > 0 ? 100.0 * (t.makespan - base_avg) / base_avg : 0.0)
      .field("recovery_s", t.recovery)
      .field("faults_injected", fault::injected(reg))
      .field("faults_recovered", fault::recovered(reg))
      .field("backoffs", reg.histogram_count("client", "backoff_seconds"))
      .field("server_fallbacks",
             reg.counter_total("client", "server_fallbacks"))
      .field("results_lost", reg.counter_total("scheduler", "results_lost"))
      .field("maps_invalidated",
             reg.counter_total("scheduler", "maps_invalidated"))
      .field("links_downed", fault::injections(reg, "link_down"))
      .field("groups_downed", fault::injections(reg, "group_down"))
      .field("links_degraded", fault::injections(reg, "link_degrade"))
      .field("trace_links_downed", fault::injections(reg, "trace_down"))
      .field("server_crashes", fault::injections(reg, "server_crash"))
      .field("server_restores", fault::injections(reg, "server_restore"))
      .str();
}

/// Builds the full E16 point list. The seed grid, fault schedules, and
/// point order are identical at every --jobs value.
std::vector<PointSpec> build_points(double* crash3_recovery,
                                    double* crash_fast3_recovery) {
  std::vector<PointSpec> points;

  // Client crashes: n hosts crash staggered mid-map, restart 60 s later.
  for (const int crashes : {0, 1, 2, 3}) {
    points.push_back(
        {"crash", static_cast<double>(crashes),
         [crashes](core::Scenario& s) {
           for (int c = 0; c < crashes; ++c) {
             fault::ClientCrash cc;
             cc.host = c;
             cc.at = SimTime::seconds(20 + 15 * c);
             cc.restart_at = cc.at + SimTime::seconds(60);
             s.faults.crashes.push_back(cc);
           }
         },
         crashes == 3 ? crash3_recovery : nullptr});
  }

  // Same crash schedules with fast lost-work recovery on
  // (resend_lost_results + report_fetch_failures): the restarted client's
  // first RPC carries an empty known-results list, the scheduler reconciles
  // and re-issues the wiped work on the spot, and recovery is bounded by
  // the client RPC interval instead of the report deadline.
  for (const int crashes : {1, 2, 3}) {
    points.push_back(
        {"crash_fast", static_cast<double>(crashes),
         [crashes](core::Scenario& s) {
           s.project.resend_lost_results = true;
           s.project.report_fetch_failures = true;
           for (int c = 0; c < crashes; ++c) {
             fault::ClientCrash cc;
             cc.host = c;
             cc.at = SimTime::seconds(20 + 15 * c);
             cc.restart_at = cc.at + SimTime::seconds(60);
             s.faults.crashes.push_back(cc);
           }
         },
         crashes == 3 ? crash_fast3_recovery : nullptr});
  }

  // Scheduler/report RPC loss.
  for (const double rate : {0.1, 0.25, 0.5}) {
    points.push_back({"rpc_loss", rate, [rate](core::Scenario& s) {
                        s.faults.rpc_loss_rate = rate;
                      }});
  }

  // Upload corruption (caught by the quorum validator; work re-issued).
  for (const double rate : {0.1, 0.25}) {
    points.push_back({"corruption", rate, [rate](core::Scenario& s) {
                        s.faults.upload_corruption_rate = rate;
                      }});
  }

  // Data-server outage of increasing length, starting during the map
  // download wave.
  for (const double outage_s : {30.0, 90.0}) {
    points.push_back({"server_outage", outage_s,
                      [outage_s](core::Scenario& s) {
                        fault::ServerOutage o;
                        o.down_at = SimTime::seconds(10);
                        o.up_at = o.down_at + SimTime::seconds(outage_s);
                        s.faults.server_outages.push_back(o);
                      }});
  }

  // Random link flapping, increasing mean downtime (2 min mean uptime).
  for (const double down_s : {5.0, 15.0}) {
    points.push_back({"link_flap", down_s, [down_s](core::Scenario& s) {
                        fault::LinkFlap flap;
                        flap.mean_up = SimTime::minutes(2);
                        flap.mean_down = SimTime::seconds(down_s);
                        s.faults.link_flap = flap;
                      }});
  }

  // Correlated group failure vs the same hosts failing independently.
  // Both variants cost each host exactly 60 s of downtime; the correlated
  // one takes them down *simultaneously* (one shared uplink), so replicas
  // of the same workunit vanish together and the makespan should come out
  // no better than the staggered independent schedule.
  for (const int n : {2, 3}) {
    points.push_back({"correlated", static_cast<double>(n),
                      [n](core::Scenario& s) {
                        fault::HostGroup g;
                        g.name = "shared-uplink";
                        for (int h = 0; h < n; ++h) g.hosts.push_back(h);
                        s.faults.groups.push_back(g);
                        fault::GroupFault gf;
                        gf.group = "shared-uplink";
                        gf.down_at = SimTime::seconds(30);
                        gf.up_at = SimTime::seconds(90);
                        s.faults.group_faults.push_back(gf);
                      }});
    // The equivalent independent schedule: the identical per-host windows
    // expressed as individual link faults. A <group> is semantically its
    // expansion, so the makespan must come out exactly equal — only the
    // groups_downed/links_downed counters tell the two apart. Any drift
    // here means the correlated path stopped being a faithful expansion.
    points.push_back({"independent", static_cast<double>(n),
                      [n](core::Scenario& s) {
                        for (int h = 0; h < n; ++h) {
                          fault::LinkFault lf;
                          lf.host = h;
                          lf.down_at = SimTime::seconds(30);
                          lf.up_at = SimTime::seconds(90);
                          s.faults.link_faults.push_back(lf);
                        }
                      }});
    // Same per-host downtime staggered 25 s apart: host outages that do
    // NOT overlap each other stretch the disruption across more of the
    // job and interact with client backoff, so the fleet usually pays
    // more than for one simultaneous (correlated) hit.
    points.push_back({"staggered", static_cast<double>(n),
                      [n](core::Scenario& s) {
                        for (int h = 0; h < n; ++h) {
                          fault::LinkFault lf;
                          lf.host = h;
                          lf.down_at = SimTime::seconds(30 + 25 * h);
                          lf.up_at = lf.down_at + SimTime::seconds(60);
                          s.faults.link_faults.push_back(lf);
                        }
                      }});
  }

  // Bandwidth degradation: one host's access link crawls at a fraction of
  // its rate for the whole job. Flows keep moving — this exercises the
  // max-min fair-share recompute, not the binary up/down path — and the
  // makespan climbs monotonically as the factor drops.
  for (const double factor : {0.5, 0.25, 0.1}) {
    points.push_back({"degrade", factor, [factor](core::Scenario& s) {
                        fault::LinkDegrade d;
                        d.host = 0;
                        d.factor = factor;
                        d.at = SimTime::seconds(10);
                        // until = infinity: never restored
                        s.faults.degrades.push_back(d);
                      }});
  }

  // Trace-driven availability churn: each traced host has a mid-job off
  // window from a synthetic SETI-like availability trace.
  for (const int traced : {2, 4}) {
    points.push_back({"trace_churn", static_cast<double>(traced),
                      [traced](core::Scenario& s) {
                        std::string csv;
                        for (int h = 0; h < traced; ++h) {
                          const int off = 40 + 5 * h;
                          csv += std::to_string(h) + ",0," +
                                 std::to_string(off) + "\n";
                          csv += std::to_string(h) + "," +
                                 std::to_string(off + 25) + ",100000\n";
                        }
                        for (const auto& lf : fault::compile_availability_trace(
                                 csv, s.n_nodes)) {
                          s.faults.link_faults.push_back(lf);
                        }
                      }});
  }

  // Scheduler crash/restore: the server loses all post-snapshot state at
  // t = 100 and restores from the latest periodic DB snapshot after an
  // increasing outage. resend_lost_results reconciles the rolled-back
  // in-flight results on each holder's next RPC.
  for (const double outage_s : {20.0, 60.0}) {
    points.push_back({"server_crash", outage_s, [outage_s](core::Scenario& s) {
                        s.project.resend_lost_results = true;
                        fault::ServerCrash sc;
                        sc.at = SimTime::seconds(100);
                        sc.restore_at = sc.at + SimTime::seconds(outage_s);
                        s.faults.server_crashes.push_back(sc);
                      }});
  }

  return points;
}

void run(int n_seeds, const char* out_path, int jobs) {
  const auto sweep_t0 = std::chrono::steady_clock::now();
  std::printf(
      "E16 — CHAOS SWEEP (8 nodes, 6 maps, 2 reducers, 60 MB, %d seeds)\n"
      "one JSON line per (fault family, intensity) point\n\n",
      n_seeds);

  double points_wall_s = 0;
  const PointSpec no_faults{"baseline", 0, [](core::Scenario&) {}, nullptr};
  bench::SeedPool pool(jobs);

  // Fault-free makespan per seed: the recovery-time yardstick. Each run
  // counts into its own cluster's registry, which the baseline ignores.
  std::vector<double> baseline;
  for (const SeedRun& r : pool.map(
           n_seeds, [&](int i) { return run_chaos_seed(no_faults, i); })) {
    points_wall_s += r.wall_s;
    baseline.push_back(r.total_seconds);
  }
  double base_avg = 0;
  for (const double b : baseline) base_avg += b;
  base_avg /= n_seeds;

  // Headline inputs: recovery at the heaviest crash schedule, with and
  // without fast lost-work recovery.
  double crash3_recovery = 0, crash_fast3_recovery = 0;
  const std::vector<PointSpec> points =
      build_points(&crash3_recovery, &crash_fast3_recovery);

  std::vector<std::string> rows;
  const auto emit = [&rows](std::string row) {
    std::printf("%s\n", row.c_str());
    rows.push_back(std::move(row));
  };

  // The whole (point, seed) grid runs as one flat batch — full
  // parallelism even when n_seeds < jobs — and each point is then reduced
  // in seed order from the per-cluster registries.
  const int n_points = static_cast<int>(points.size());
  const auto results = pool.map(n_points * n_seeds, [&](int task) {
    return run_chaos_seed(points[static_cast<std::size_t>(task / n_seeds)],
                          task % n_seeds);
  });
  for (int p = 0; p < n_points; ++p) {
    obs::MetricsRegistry merged;
    Timings t;
    for (int i = 0; i < n_seeds; ++i) {
      const SeedRun& r = results[static_cast<std::size_t>(p * n_seeds + i)];
      merged.merge_from(r.metrics);
      points_wall_s += r.wall_s;
      fold_seed(r, baseline[i], &t);
    }
    finish_point(points[static_cast<std::size_t>(p)], &t);
    emit(render_row(points[static_cast<std::size_t>(p)], t, base_avg, merged));
  }

  std::printf(
      "\nExpected shape: the crash=0 row matches the baseline exactly (the\n"
      "empty plan wires nothing); makespan and recovery_s climb with every\n"
      "family's intensity while completion stays at 100%% — the BOINC\n"
      "deadline/retry/quorum machinery absorbs all of it, at a latency\n"
      "cost. The crash_fast rows rerun the crash schedules with fast\n"
      "lost-work recovery enabled: recovery_s collapses from roughly the\n"
      "report deadline to about one client RPC interval, and results_lost\n"
      "counts the work units reconciled away at the restart RPC. The\n"
      "correlated rows must equal their independent rows exactly (a group\n"
      "is a faithful expansion; only the counters differ) and usually beat\n"
      "the staggered rows, whose spread-out outages disrupt more of the\n"
      "job; degrade rows stretch transfers without ever dropping a flow;\n"
      "trace_churn rows count their faults under trace_links_downed; and\n"
      "server_crash rows recover via DB-snapshot restore + reconciliation\n"
      "(server_crashes == server_restores == runs).\n");

  const double sweep_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_t0)
          .count();
  common::JsonWriter headline;
  headline.field("seeds", n_seeds)
      .field("baseline_s", base_avg)
      .field("crash3_recovery_s", crash3_recovery)
      .field("crash_fast3_recovery_s", crash_fast3_recovery)
      .field("fast_recovery_speedup_x",
             crash_fast3_recovery > 0 ? crash3_recovery / crash_fast3_recovery
                                      : 0.0)
      .field("points", static_cast<int>(rows.size()))
      // Execution record (the only jobs-dependent fields in the doc):
      // points_wall_s is the summed per-simulation wall time — the
      // one-worker cost — so speedup is what the pool bought this run.
      .field("jobs", jobs)
      .field("wall_s", sweep_wall_s)
      .field("points_wall_s", points_wall_s)
      .field("parallel_speedup_x",
             sweep_wall_s > 0 ? points_wall_s / sweep_wall_s : 0.0);
  bench::write_bench_doc(out_path, "E16", rows, headline.str());
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const int jobs = vcmr::bench::parse_jobs_flag(argc, argv);
  const int n_seeds = argc > 1 ? std::atoi(argv[1]) : 3;
  const char* out = argc > 2 ? argv[2] : "BENCH_CHAOS.json";
  try {
    vcmr::run(n_seeds, out, jobs);
  } catch (const vcmr::bench::SeedPoolError& e) {
    std::fprintf(stderr, "error: sweep failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
