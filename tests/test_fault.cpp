// vcmr::fault — deterministic fault injection.
//
// Three families of checks:
//  1. No-faults regression: an empty FaultPlan wires nothing, draws nothing,
//     and leaves the seed scenarios bit-identical (golden numbers captured
//     before the engine existed, full %.17g precision + event counts).
//  2. Recovery correctness: under every fault type the word-count job still
//     completes with byte-identical output against the local-runtime oracle.
//  3. Determinism: the same fault schedule twice yields identical metrics,
//     fault counters, and trace streams.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "core/scenario_io.h"
#include "fault/fault.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"

namespace vcmr {
namespace {

std::string corpus(Bytes size, std::uint64_t seed, std::int64_t vocab = 500) {
  common::RngStreamFactory f(seed);
  common::Rng rng = f.stream("corpus");
  mr::ZipfOptions zo;
  zo.vocabulary = vocab;
  return mr::ZipfCorpus(zo).generate(size, rng);
}

std::vector<mr::KeyValue> oracle(const std::string& text, int maps, int reds) {
  mr::register_builtin_apps();
  const mr::MapReduceApp* app = mr::AppRegistry::instance().find("word_count");
  mr::LocalJobOptions opts;
  opts.n_maps = maps;
  opts.n_reducers = reds;
  return mr::run_local(*app, text, opts).output;
}

// Materialised word-count on 6 hosts; without faults it finishes at
// t ~ 110 s (maps 0-50 s, reduce 72-110 s), so fault windows below are
// placed inside that span. Deadline shortened so the transitioner re-issues
// lost work within the run instead of after the default 4 h bound.
core::Scenario recovery_scenario(const std::string& text) {
  core::Scenario s;
  s.seed = 17;
  s.n_nodes = 6;
  s.n_maps = 4;
  s.n_reducers = 2;
  s.input_text = text;
  s.boinc_mr = true;
  s.project.delay_bound = SimTime::minutes(3);
  s.time_limit = SimTime::hours(12);
  return s;
}

// --- 1. no-faults bit-identity ---------------------------------------------

// Golden numbers captured on the commit *before* vcmr::fault existed
// (seed 11, 8 emulab nodes, 6 maps, 2 reducers, 60 MB synthetic input).
// Doubles are exact: SimTime is integer microseconds, so these values are
// reproducible to the last bit, and events_executed pins the whole event
// stream, not just the summary statistics.
core::Scenario golden_scenario(bool mr) {
  core::Scenario s;
  s.seed = 11;
  s.n_nodes = 8;
  s.n_maps = 6;
  s.n_reducers = 2;
  s.input_size = 60LL * 1000 * 1000;
  s.boinc_mr = mr;
  return s;
}

TEST(FaultRegression, NoFaultsBitIdenticalBoincMr) {
  core::Cluster cluster(golden_scenario(/*mr=*/true));
  EXPECT_EQ(cluster.injector(), nullptr);  // empty plan: engine not wired
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(out.metrics.total_seconds, 205.092772);
  EXPECT_EQ(out.metrics.map.avg_task_seconds, 51.086786833333321);
  EXPECT_EQ(out.metrics.reduce.avg_task_seconds, 29.64548400000001);
  EXPECT_EQ(out.metrics.map_to_reduce_gap_seconds, 82.168866999999992);
  EXPECT_EQ(out.server_bytes_sent, 120025909);
  EXPECT_EQ(out.server_bytes_received, 140783545);
  EXPECT_EQ(out.interclient_bytes, 138000000);
  EXPECT_EQ(out.scheduler_rpcs, 34);
  EXPECT_EQ(out.backoffs, 26);
  EXPECT_EQ(cluster.simulation().events_executed(), 455);
  EXPECT_EQ(fault::injected(cluster.metrics()), 0);
  // Recovery mechanisms default off: nothing reconciled, nothing voided.
  EXPECT_EQ(out.results_lost, 0);
  EXPECT_EQ(out.fetch_failures_reported, 0);
  EXPECT_EQ(out.maps_invalidated, 0);
}

TEST(FaultRegression, NoFaultsBitIdenticalPlain) {
  core::Cluster cluster(golden_scenario(/*mr=*/false));
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(out.metrics.total_seconds, 205.09481);
  EXPECT_EQ(out.metrics.map.avg_task_seconds, 51.086786833333321);
  EXPECT_EQ(out.metrics.reduce.avg_task_seconds, 41.256161500000012);
  EXPECT_EQ(out.metrics.map_to_reduce_gap_seconds, 82.168866999999992);
  EXPECT_EQ(out.server_bytes_sent, 258025909);
  EXPECT_EQ(out.server_bytes_received, 140783578);
  EXPECT_EQ(out.interclient_bytes, 0);
  EXPECT_EQ(out.scheduler_rpcs, 34);
  EXPECT_EQ(out.backoffs, 26);
  EXPECT_EQ(cluster.simulation().events_executed(), 451);
}

// --- 2. recovery correctness ------------------------------------------------

TEST(FaultRecovery, LinkFaultHeals) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::LinkFault lf;
  lf.host = 2;
  lf.down_at = SimTime::seconds(10);
  lf.up_at = SimTime::seconds(45);
  s.faults.link_faults.push_back(lf);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_down"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_up"), 1);
}

TEST(FaultRecovery, PartitionHeals) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::Partition p;
  p.hosts = {0, 1};
  p.at = SimTime::seconds(15);
  p.heal_at = SimTime::seconds(55);
  s.faults.partitions.push_back(p);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "partition"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "partition_heal"), 1);
}

TEST(FaultRecovery, StorageTierOutage) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::ServerOutage o;
  o.down_at = SimTime::seconds(5);
  o.up_at = SimTime::seconds(30);
  s.faults.server_outages.push_back(o);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_down"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_up"), 1);
  EXPECT_GT(cluster.project().storage().rejected_unavailable(), 0);
}

TEST(FaultRecovery, ClientCrashAndRestart) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::ClientCrash c;
  c.host = 1;
  c.at = SimTime::seconds(20);
  c.restart_at = SimTime::seconds(60);
  s.faults.crashes.push_back(c);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "crash"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "restart"), 1);
}

TEST(FaultRecovery, ClientCrashWithoutRestart) {
  // The crashed host never comes back; its in-flight work must be re-issued
  // to the survivors after the deadline passes.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::ClientCrash c;
  c.host = 3;
  c.at = SimTime::seconds(25);
  s.faults.crashes.push_back(c);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "crash"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "restart"), 0);
  EXPECT_TRUE(cluster.client(3).crashed());
}

TEST(FaultRecovery, UploadCorruptionCaughtByQuorum) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  s.faults.upload_corruption_rate = 0.3;
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_GT(fault::injections(cluster.metrics(), "corrupt_upload"), 0);
  // Corrupted digests never validate: the quorum threw every one away.
  EXPECT_GT(cluster.metrics().counter_value("validator", "results_invalid"),
            0);
}

TEST(FaultRecovery, RpcMessageLoss) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  s.faults.rpc_loss_rate = 0.25;
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_GT(fault::injections(cluster.metrics(), "rpc_drop"), 0);
  EXPECT_GT(out.backoffs, 0);
}

TEST(FaultRecovery, LinkFlapStillCompletes) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::LinkFlap flap;
  flap.mean_up = SimTime::seconds(60);
  flap.mean_down = SimTime::seconds(5);
  s.faults.link_flap = flap;
  s.time_limit = SimTime::hours(24);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_GT(fault::injections(cluster.metrics(), "link_down"), 0);
}

TEST(FaultRecovery, CombinedChaosSchedule) {
  // Everything at once: a flapped link window, a partition, a server
  // outage, a crash, corruption and RPC loss — output still byte-identical.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::LinkFault lf;
  lf.host = 4;
  lf.down_at = SimTime::seconds(8);
  lf.up_at = SimTime::seconds(35);
  s.faults.link_faults.push_back(lf);
  fault::Partition p;
  p.hosts = {0, 5};
  p.at = SimTime::seconds(40);
  p.heal_at = SimTime::seconds(70);
  s.faults.partitions.push_back(p);
  fault::ServerOutage o;
  o.down_at = SimTime::seconds(90);
  o.up_at = SimTime::seconds(110);
  s.faults.server_outages.push_back(o);
  fault::ClientCrash c;
  c.host = 2;
  c.at = SimTime::seconds(30);
  c.restart_at = SimTime::seconds(80);
  s.faults.crashes.push_back(c);
  s.faults.upload_corruption_rate = 0.15;
  s.faults.rpc_loss_rate = 0.1;
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  s.time_limit = SimTime::hours(24);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_GE(fault::injected(cluster.metrics()), 4);
  EXPECT_GE(fault::recovered(cluster.metrics()), 4);
}

TEST(FaultRecovery, CorrelatedGroupFaultHeals) {
  // Three hosts behind one shared uplink go down together (correlated
  // failure) and come back together; one injection, not three.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::HostGroup g;
  g.name = "dsl-street";
  g.hosts = {1, 2, 3};
  s.faults.groups.push_back(g);
  fault::GroupFault gf;
  gf.group = "dsl-street";
  gf.down_at = SimTime::seconds(12);
  gf.up_at = SimTime::seconds(50);
  s.faults.group_faults.push_back(gf);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "group_down"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "group_up"), 1);
  // Member links don't double-count.
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_down"), 0);
}

TEST(FaultRecovery, DegradedLinksStillComplete) {
  // Bandwidth degradation is not the binary up/down path: flows keep
  // moving at the scaled rate and the job completes with correct output.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::LinkDegrade d1;
  d1.host = 0;
  d1.factor = 0.2;
  d1.at = SimTime::seconds(5);
  d1.until = SimTime::seconds(80);
  s.faults.degrades.push_back(d1);
  fault::LinkDegrade d2;
  d2.host = 3;
  d2.factor = 0.5;
  d2.at = SimTime::seconds(20);
  d2.until = SimTime::seconds(90);
  s.faults.degrades.push_back(d2);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_degrade"), 2);
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_restore_rate"), 2);
}

TEST(FaultRecovery, TraceDrivenChurnCompletes) {
  // Availability trace: host 2 has an off window [30, 60); host 5 only
  // joins at t = 20. Both trailing off-forever faults (at t = 100000 s)
  // never fire — the run settles long before.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  const std::string csv =
      "2,0,30\n"
      "2,60,100000\n"
      "5,20,100000\n";
  for (const auto& lf : fault::compile_availability_trace(csv, s.n_nodes)) {
    s.faults.link_faults.push_back(lf);
  }
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "trace_down"), 2);
  EXPECT_EQ(fault::injections(cluster.metrics(), "trace_up"), 2);
  // Trace churn is counted apart from hand-written link faults.
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_down"), 0);
}

TEST(FaultRecovery, TraceFileThroughClusterCompletes) {
  // Same schedule via <trace file="...">: the Cluster compiles the CSV at
  // construction and the plan reaches the Injector already flattened.
  const std::string text = corpus(150 * 1024, 31);
  const std::string path = "vcmr_test_trace.csv";
  {
    std::ofstream f(path);
    f << "# host_id,on_at,off_at\n"
      << "2,0,30\n"
      << "2,60,100000\n"
      << "5,20,100000\n";
  }
  core::Scenario s = recovery_scenario(text);
  s.faults.trace_file = path;
  core::Cluster cluster(s);
  std::remove(path.c_str());
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "trace_down"), 2);
  EXPECT_EQ(fault::injections(cluster.metrics(), "trace_up"), 2);
}

// --- 3. fast lost-work recovery ---------------------------------------------

TEST(FastRecovery, CrashReconnectReissuesOnFirstRpc) {
  const std::string text = corpus(150 * 1024, 31);
  // Host 4 polls first (~t = 11 s) and grabs one replica of every map; a
  // crash at t = 14 s wipes work the quorums cannot complete without.
  fault::ClientCrash c;
  c.host = 4;
  c.at = SimTime::seconds(14);
  c.restart_at = SimTime::seconds(60);

  // Mechanism off: the wiped tasks sit kInProgress until their report
  // deadline — recovery is deadline-bound.
  core::Scenario off = recovery_scenario(text);
  off.faults.crashes.push_back(c);
  core::Cluster slow(off);
  const core::RunOutcome deadline_bound = slow.run_job();

  // Mechanism on: the restarted client's first RPC carries an empty
  // known-results list; reconciliation marks the wiped tasks lost and the
  // transitioner re-issues them on the spot.
  core::Scenario on = recovery_scenario(text);
  on.project.resend_lost_results = true;
  on.faults.crashes.push_back(c);
  on.record_trace = true;
  core::Cluster fast(on);
  const core::RunOutcome reconciled = fast.run_job();

  ASSERT_TRUE(deadline_bound.metrics.completed);
  ASSERT_TRUE(reconciled.metrics.completed);
  EXPECT_EQ(fast.collect_output(reconciled.job), oracle(text, 4, 2));
  EXPECT_EQ(deadline_bound.results_lost, 0);
  EXPECT_GE(reconciled.results_lost, 1);
  EXPECT_LT(reconciled.metrics.total_seconds,
            deadline_bound.metrics.total_seconds);

  // Reconciliation fired on the first post-restart RPC (t = 60 s), not at
  // the 3-minute report deadline.
  SimTime first_resend = SimTime::infinity();
  for (const auto& p : fast.trace().points_for("scheduler")) {
    if (p.label == "resend_lost") {
      first_resend = p.at;
      break;
    }
  }
  EXPECT_GE(first_resend, SimTime::seconds(60));
  EXPECT_LE(first_resend, SimTime::seconds(75));
}

TEST(FastRecovery, FetchFailureInvalidatesDeadHolder) {
  // No server mirror: when the only holder of a validated map output dies,
  // reducers exhaust their peer-fetch attempts. With report_fetch_failures
  // on, the failure rides the next RPC, the jobtracker voids the dead
  // holder's locations, and the map re-runs ahead of any deadline.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  s.project.mirror_map_outputs = false;
  s.project.resend_lost_results = true;
  s.project.report_fetch_failures = true;
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  fault::ClientCrash c;
  c.host = 4;  // the fast host: first to validate, so the canonical holder
  c.at = SimTime::seconds(65);  // after the maps validate, before reduce ends
  s.faults.crashes.push_back(c);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_GE(out.fetch_failures_reported, 1);
  EXPECT_GE(out.maps_invalidated, 1);
}

TEST(FastRecovery, MechanismsOnWithoutFaultsAreInert) {
  // Both mechanisms enabled on a fault-free run: nothing is ever
  // reconciled away or invalidated — the job completes normally.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  s.project.resend_lost_results = true;
  s.project.report_fetch_failures = true;
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(out.results_lost, 0);
  EXPECT_EQ(out.fetch_failures_reported, 0);
  EXPECT_EQ(out.maps_invalidated, 0);
}

// --- trace compiler -----------------------------------------------------------

void expect_trace_error(const std::string& csv, const std::string& needle) {
  try {
    fault::compile_availability_trace(csv, 6);
    FAIL() << "expected Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(TraceCompile, ComplementOfWindowsBecomesLinkFaults) {
  // Rows are ON windows; a traced host is down in the complement.
  const std::string csv =
      "# synthetic availability trace\n"
      "0,10,20\n"
      "0,30,40\n"
      "1,0,50\n"
      "\n"
      "2,5,15\n";
  const auto faults = fault::compile_availability_trace(csv, 6);
  ASSERT_EQ(faults.size(), 6u);
  for (const auto& lf : faults) EXPECT_TRUE(lf.from_trace);
  // host 0: down [0,10), [20,30), [40, forever)
  EXPECT_EQ(faults[0].host, 0);
  EXPECT_EQ(faults[0].down_at, SimTime::zero());
  EXPECT_EQ(faults[0].up_at, SimTime::seconds(10));
  EXPECT_EQ(faults[1].down_at, SimTime::seconds(20));
  EXPECT_EQ(faults[1].up_at, SimTime::seconds(30));
  EXPECT_EQ(faults[2].down_at, SimTime::seconds(40));
  EXPECT_EQ(faults[2].up_at, SimTime::infinity());
  // host 1: on from the first instant, off forever after t = 50.
  EXPECT_EQ(faults[3].host, 1);
  EXPECT_EQ(faults[3].down_at, SimTime::seconds(50));
  EXPECT_EQ(faults[3].up_at, SimTime::infinity());
  // host 2: down [0,5), [15, forever)
  EXPECT_EQ(faults[4].host, 2);
  EXPECT_EQ(faults[4].up_at, SimTime::seconds(5));
  EXPECT_EQ(faults[5].down_at, SimTime::seconds(15));
}

TEST(TraceCompile, AdjacentWindowsLeaveNoGap) {
  const auto faults = fault::compile_availability_trace("3,0,10\n3,10,20\n", 6);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].down_at, SimTime::seconds(20));
  EXPECT_EQ(faults[0].up_at, SimTime::infinity());
}

TEST(TraceCompile, UntracedHostsStayUp) {
  EXPECT_TRUE(fault::compile_availability_trace("", 6).empty());
  EXPECT_TRUE(fault::compile_availability_trace("# only comments\n\n", 6)
                  .empty());
}

TEST(TraceCompile, RejectsMalformedRowsWithLineNumbers) {
  expect_trace_error("0,10\n", "line 1");
  expect_trace_error("0,10\n", "expected host_id,on_at,off_at");
  expect_trace_error("x,1,2\n", "bad host_id");
  expect_trace_error("0,abc,2\n", "bad on_at/off_at");
  expect_trace_error("9,1,2\n", "host 9 out of range [0, 6)");
  expect_trace_error("0,-5,2\n", "negative on_at");
  expect_trace_error("0,5,5\n", "interval is empty");
  // Times SimTime cannot hold; NaN used to slip past every comparison.
  for (const char* row : {"0,0,1e300\n", "0,0,inf\n", "0,nan,100\n",
                          "0,-inf,5\n", "0,1,nan\n"}) {
    expect_trace_error(row, "line 1: on_at/off_at must be finite and within "
                            "1e+12 s");
  }
  expect_trace_error("0,1,2\n0,3,1e13\n", "line 2: on_at/off_at");
}

/// One seeded mutant of a trace: a digit changed, a field replaced by a
/// non-finite or oversized token, a field or a row dropped or duplicated.
std::string mutate_trace(const std::string& csv, common::Rng& rng) {
  std::vector<std::string> rows = common::split(csv, '\n');
  rows.pop_back();  // the text ends in a newline
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t r = pick(rows.size());
  std::vector<std::string> fields = common::split(rows[r], ',');
  const std::size_t f = pick(fields.size());
  switch (rng.uniform_int(0, 5)) {
    case 0: {
      std::string& field = fields[f];
      const std::size_t at = pick(field.size() + 1);
      if (at < field.size()) {
        field[at] = static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      break;
    }
    case 1: {
      static const char* const kTokens[] = {"nan", "inf", "-inf", "1e300",
                                            "-1e300", "9.3e12"};
      fields[f] = kTokens[pick(std::size(kTokens))];
      break;
    }
    case 2:
      fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(f));
      break;
    case 3:
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(f),
                    fields[f]);
      break;
    case 4:
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(r));
      fields.clear();
      break;
    default:
      rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(r), rows[r]);
      fields.clear();
      break;
  }
  if (!fields.empty()) {
    rows[r].clear();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      rows[r] += (i > 0 ? "," : "") + fields[i];
    }
  }
  std::string out;
  for (const std::string& row : rows) out += row + '\n';
  return out;
}

// Seeded-mutation fuzz of the trace CSV reader: every mutant compiles to
// link faults SimTime can hold, or throws vcmr::Error.
TEST(TraceCompile, MutatedTraceCompilesOrThrowsError) {
  const std::string base =
      "# host_id,on_at,off_at\n"
      "0,10,20\n"
      "0,30,40.25\n"
      "1,0,50\n"
      "2,5,15\n"
      "2,15,60\n"
      "5,100,2000\n";
  int compiled = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    common::Rng rng(seed);
    std::string csv = base;
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
      csv = mutate_trace(csv, rng);
    }
    std::vector<fault::LinkFault> faults;
    try {
      faults = fault::compile_availability_trace(csv, 6);
      ++compiled;
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    for (const fault::LinkFault& lf : faults) {
      EXPECT_TRUE(lf.host >= 0 && lf.host < 6) << csv;
      EXPECT_GE(lf.down_at, SimTime::zero()) << csv;
      EXPECT_GT(lf.up_at, lf.down_at) << csv;
      EXPECT_LE(lf.down_at, SimTime::seconds(SimTime::kMaxInputSeconds))
          << csv;
    }
  }
  EXPECT_GT(compiled, 0);
  EXPECT_GT(rejected, 0);
}

TEST(TraceCompile, RejectsUnsortedAndOverlappingIntervals) {
  // The error names the first offending line, comments included in count.
  expect_trace_error("# header\n0,10,20\n0,5,30\n", "line 3");
  expect_trace_error("0,10,20\n0,5,30\n", "intervals not sorted for this host");
  expect_trace_error("0,10,20\n0,15,30\n", "line 2");
  expect_trace_error("0,10,20\n0,15,30\n", "interval overlaps the previous one");
  // Other hosts' windows don't interleave the check.
  expect_trace_error("0,10,20\n1,0,5\n0,12,30\n", "line 3");
}

TEST(TraceCompile, MissingFileThrows) {
  EXPECT_THROW(
      fault::load_availability_trace_file("/nonexistent/trace.csv", 6), Error);
}

// --- 4. determinism ---------------------------------------------------------

TEST(FaultDeterminism, SameScheduleTwiceIsIdentical) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  fault::ClientCrash c;
  c.host = 1;
  c.at = SimTime::seconds(20);
  c.restart_at = SimTime::seconds(60);
  s.faults.crashes.push_back(c);
  s.faults.rpc_loss_rate = 0.2;
  s.faults.upload_corruption_rate = 0.1;
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  s.record_trace = true;

  // Run one cluster to the end, then the other: a newer cluster's registry
  // is current over the older one's, so they cannot interleave.
  core::Cluster ca(s);
  const core::RunOutcome a = ca.run_job();
  core::Cluster cb(s);
  const core::RunOutcome b = cb.run_job();
  const sim::TraceRecorder& ta = ca.trace();
  const sim::TraceRecorder& tb = cb.trace();
  ASSERT_TRUE(a.metrics.completed);
  EXPECT_EQ(a.metrics.total_seconds, b.metrics.total_seconds);
  EXPECT_EQ(a.server_bytes_sent, b.server_bytes_sent);
  EXPECT_EQ(a.scheduler_rpcs, b.scheduler_rpcs);
  for (const char* kind : {"rpc_drop", "corrupt_upload"}) {
    EXPECT_EQ(fault::injections(ca.metrics(), kind),
              fault::injections(cb.metrics(), kind));
  }
  EXPECT_EQ(ca.simulation().events_executed(),
            cb.simulation().events_executed());
  // Whole trace streams match, including injected fault points.
  ASSERT_EQ(ta.points().size(), tb.points().size());
  for (std::size_t i = 0; i < ta.points().size(); ++i) {
    EXPECT_EQ(ta.points()[i].at, tb.points()[i].at);
    EXPECT_EQ(ta.points()[i].component, tb.points()[i].component);
    EXPECT_EQ(ta.points()[i].actor, tb.points()[i].actor);
    EXPECT_EQ(ta.points()[i].label, tb.points()[i].label);
  }
  // Fault events made it into the trace under the "fault" actor.
  EXPECT_FALSE(ta.points_for("fault").empty());
}

// --- 5. fixed-seed pins for the new fault families ---------------------------
//
// Each new family gets a golden-scenario run with a fixed schedule; the
// event count and %.17g makespan pin the whole execution, so any drift in
// how these faults perturb the stream shows up as a failed EXPECT_EQ.

TEST(FaultPins, CorrelatedGroupPinned) {
  core::Scenario s = golden_scenario(/*mr=*/true);
  fault::HostGroup g;
  g.name = "rack";
  g.hosts = {2, 3};
  s.faults.groups.push_back(g);
  fault::GroupFault gf;
  gf.group = "rack";
  gf.down_at = SimTime::seconds(20);
  gf.up_at = SimTime::seconds(60);
  s.faults.group_faults.push_back(gf);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(fault::injections(cluster.metrics(), "group_down"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "group_up"), 1);
  EXPECT_EQ(fault::injected(cluster.metrics()), 1);
  EXPECT_EQ(out.metrics.total_seconds, 204.89070999999998);
  EXPECT_EQ(cluster.simulation().events_executed(), 467);
}

TEST(FaultPins, LinkDegradePinned) {
  core::Scenario s = golden_scenario(/*mr=*/true);
  fault::LinkDegrade d;
  d.host = 1;
  d.factor = 0.25;
  d.at = SimTime::seconds(20);
  d.until = SimTime::seconds(80);
  s.faults.degrades.push_back(d);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_degrade"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_restore_rate"), 1);
  EXPECT_EQ(out.metrics.total_seconds, 205.092772);
  EXPECT_EQ(cluster.simulation().events_executed(), 457);
}

TEST(FaultPins, TraceSchedulePinned) {
  core::Scenario s = golden_scenario(/*mr=*/true);
  const std::string csv =
      "3,0,40\n"
      "3,70,100000\n"
      "6,25,100000\n";
  for (const auto& lf : fault::compile_availability_trace(csv, s.n_nodes)) {
    s.faults.link_faults.push_back(lf);
  }
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(fault::injections(cluster.metrics(), "trace_down"), 2);
  EXPECT_EQ(fault::injections(cluster.metrics(), "trace_up"), 2);
  EXPECT_EQ(fault::injections(cluster.metrics(), "link_down"), 0);
  EXPECT_EQ(out.metrics.total_seconds, 204.89070999999998);
  EXPECT_EQ(cluster.simulation().events_executed(), 453);
}

TEST(FaultPins, ServerCrashRestorePinned) {
  core::Scenario s = golden_scenario(/*mr=*/true);
  s.project.resend_lost_results = true;
  fault::ServerCrash sc;
  sc.at = SimTime::seconds(100);
  sc.restore_at = SimTime::seconds(125);
  s.faults.server_crashes.push_back(sc);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_crash"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_restore"), 1);
  EXPECT_GE(cluster.project().snapshots_taken(), 2);  // at start and t = 60
  EXPECT_EQ(out.metrics.total_seconds, 339.89320400000003);
  EXPECT_EQ(cluster.simulation().events_executed(), 645);
}

// --- 6. randomized recovery property ------------------------------------------
//
// Byte-identical output under randomized correlated-failure + degradation
// schedules: whatever groups go dark and whichever links crawl, the job
// must complete with exactly the oracle's word counts.

TEST(FaultProperty, RandomCorrelatedAndDegradedSchedules) {
  const std::string text = corpus(150 * 1024, 31);
  const std::vector<mr::KeyValue> expect = oracle(text, 4, 2);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    common::Rng rng = common::RngStreamFactory(900 + seed).stream("sched");
    core::Scenario s = recovery_scenario(text);
    s.seed = 100 + seed;
    s.time_limit = SimTime::hours(24);

    // One correlated group of 2-3 hosts with a bounded outage window.
    fault::HostGroup g;
    g.name = "g";
    const int first = static_cast<int>(rng.uniform_int(0, 3));
    const int span = static_cast<int>(rng.uniform_int(2, 3));
    for (int h = first; h < first + span; ++h) g.hosts.push_back(h);
    s.faults.groups.push_back(g);
    // Faults start by t = 50 so every schedule fires before the fastest
    // possible completion (~70 s); recovery windows may outlive the job.
    fault::GroupFault gf;
    gf.group = "g";
    gf.down_at = SimTime::seconds(rng.uniform(5, 50));
    gf.up_at = gf.down_at + SimTime::seconds(rng.uniform(5, 40));
    s.faults.group_faults.push_back(gf);

    // One or two degraded links with random severity.
    const int n_degrades = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < n_degrades; ++i) {
      fault::LinkDegrade d;
      d.host = static_cast<int>(rng.uniform_int(0, 5));
      d.factor = rng.uniform(0.25, 1.0);
      d.at = SimTime::seconds(rng.uniform(5, 50));
      d.until = d.at + SimTime::seconds(rng.uniform(10, 60));
      s.faults.degrades.push_back(d);
    }

    core::Cluster cluster(s);
    const core::RunOutcome out = cluster.run_job();
    ASSERT_TRUE(out.metrics.completed);
    EXPECT_EQ(cluster.collect_output(out.job), expect);
    EXPECT_EQ(fault::injections(cluster.metrics(), "group_down"), 1);
    EXPECT_EQ(fault::injections(cluster.metrics(), "link_degrade"), n_degrades);
  }
}

// --- plan validation and XML round-trip -------------------------------------

TEST(FaultPlanValidation, RejectsBadSchedules) {
  const std::string text = corpus(40 * 1024, 31);
  core::Scenario s = recovery_scenario(text);
  s.faults.link_faults.push_back(
      {.host = 99, .down_at = SimTime::seconds(1)});
  EXPECT_THROW(core::Cluster{s}, Error);

  s.faults.link_faults.clear();
  s.faults.crashes.push_back({.host = 0,
                              .at = SimTime::seconds(10),
                              .restart_at = SimTime::seconds(5)});
  EXPECT_THROW(core::Cluster{s}, Error);

  s.faults.crashes.clear();
  s.faults.rpc_loss_rate = 1.5;
  EXPECT_THROW(core::Cluster{s}, Error);
}

TEST(FaultPlanValidation, RejectsBadNewFamilySchedules) {
  const std::string text = corpus(40 * 1024, 31);
  const core::Scenario base = recovery_scenario(text);

  {  // group_fault naming a group that was never declared
    core::Scenario s = base;
    s.faults.group_faults.push_back(
        {.group = "ghost", .down_at = SimTime::seconds(1)});
    EXPECT_THROW(core::Cluster{s}, Error);
  }
  {  // group member out of range
    core::Scenario s = base;
    s.faults.groups.push_back({.name = "g", .hosts = {0, 42}});
    EXPECT_THROW(core::Cluster{s}, Error);
  }
  {  // duplicate group names
    core::Scenario s = base;
    s.faults.groups.push_back({.name = "g", .hosts = {0}});
    s.faults.groups.push_back({.name = "g", .hosts = {1}});
    EXPECT_THROW(core::Cluster{s}, Error);
  }
  {  // degrade factor outside (0,1]
    core::Scenario s = base;
    s.faults.degrades.push_back(
        {.host = 0, .factor = 1.5, .at = SimTime::seconds(1)});
    EXPECT_THROW(core::Cluster{s}, Error);
    s.faults.degrades[0].factor = 0.0;
    EXPECT_THROW(core::Cluster{s}, Error);
  }
  {  // server crash that restores before it happens
    core::Scenario s = base;
    s.faults.server_crashes.push_back(
        {.at = SimTime::seconds(10), .restore_at = SimTime::seconds(5)});
    EXPECT_THROW(core::Cluster{s}, Error);
  }
  {  // trace file that cannot be read
    core::Scenario s = base;
    s.faults.trace_file = "/nonexistent/trace.csv";
    EXPECT_THROW(core::Cluster{s}, Error);
  }
  // An uncompiled trace_file must never reach the Injector directly.
  sim::Simulation sim(1);
  fault::FaultPlan plan;
  plan.trace_file = "whatever.csv";
  EXPECT_THROW(fault::Injector(sim, plan, {}, 6), Error);
}

TEST(FaultPlanXml, RoundTripsThroughScenarioIo) {
  core::Scenario s;
  s.seed = 5;
  s.n_nodes = 4;
  fault::LinkFault lf;
  lf.host = 1;
  lf.down_at = SimTime::seconds(10);
  lf.up_at = SimTime::seconds(20);
  s.faults.link_faults.push_back(lf);
  fault::Partition p;
  p.hosts = {0, 2};
  p.at = SimTime::seconds(30);
  p.heal_at = SimTime::seconds(40);
  s.faults.partitions.push_back(p);
  fault::ServerOutage o;
  o.down_at = SimTime::seconds(50);
  s.faults.server_outages.push_back(o);
  fault::ClientCrash c;
  c.host = 3;
  c.at = SimTime::seconds(60);
  s.faults.crashes.push_back(c);
  s.faults.link_flap = fault::LinkFlap{.mean_up = SimTime::minutes(10),
                                       .mean_down = SimTime::seconds(30)};
  s.faults.upload_corruption_rate = 0.25;
  s.faults.rpc_loss_rate = 0.125;
  s.faults.groups.push_back({.name = "cable-isp", .hosts = {1, 2}});
  s.faults.group_faults.push_back({.group = "cable-isp",
                                   .down_at = SimTime::seconds(70),
                                   .up_at = SimTime::seconds(80)});
  s.faults.degrades.push_back({.host = 2,
                               .factor = 0.375,
                               .at = SimTime::seconds(90),
                               .until = SimTime::seconds(95)});
  s.faults.server_crashes.push_back({.at = SimTime::seconds(100)});
  s.faults.trace_file = "traces/seti.csv";
  s.project.snapshot_period = SimTime::seconds(45);

  const core::Scenario r = core::scenario_from_xml(core::scenario_to_xml(s));
  ASSERT_EQ(r.faults.link_faults.size(), 1u);
  EXPECT_EQ(r.faults.link_faults[0].host, 1);
  EXPECT_EQ(r.faults.link_faults[0].down_at, SimTime::seconds(10));
  EXPECT_EQ(r.faults.link_faults[0].up_at, SimTime::seconds(20));
  ASSERT_EQ(r.faults.partitions.size(), 1u);
  EXPECT_EQ(r.faults.partitions[0].hosts, (std::vector<int>{0, 2}));
  EXPECT_EQ(r.faults.partitions[0].heal_at, SimTime::seconds(40));
  ASSERT_EQ(r.faults.server_outages.size(), 1u);
  EXPECT_EQ(r.faults.server_outages[0].down_at, SimTime::seconds(50));
  EXPECT_EQ(r.faults.server_outages[0].up_at, SimTime::infinity());
  ASSERT_EQ(r.faults.crashes.size(), 1u);
  EXPECT_EQ(r.faults.crashes[0].restart_at, SimTime::infinity());
  ASSERT_TRUE(r.faults.link_flap.has_value());
  EXPECT_EQ(r.faults.link_flap->mean_up, SimTime::minutes(10));
  EXPECT_EQ(r.faults.upload_corruption_rate, 0.25);
  EXPECT_EQ(r.faults.rpc_loss_rate, 0.125);
  ASSERT_EQ(r.faults.groups.size(), 1u);
  EXPECT_EQ(r.faults.groups[0].name, "cable-isp");
  EXPECT_EQ(r.faults.groups[0].hosts, (std::vector<int>{1, 2}));
  ASSERT_EQ(r.faults.group_faults.size(), 1u);
  EXPECT_EQ(r.faults.group_faults[0].group, "cable-isp");
  EXPECT_EQ(r.faults.group_faults[0].down_at, SimTime::seconds(70));
  EXPECT_EQ(r.faults.group_faults[0].up_at, SimTime::seconds(80));
  ASSERT_EQ(r.faults.degrades.size(), 1u);
  EXPECT_EQ(r.faults.degrades[0].host, 2);
  EXPECT_EQ(r.faults.degrades[0].factor, 0.375);
  EXPECT_EQ(r.faults.degrades[0].at, SimTime::seconds(90));
  EXPECT_EQ(r.faults.degrades[0].until, SimTime::seconds(95));
  ASSERT_EQ(r.faults.server_crashes.size(), 1u);
  EXPECT_EQ(r.faults.server_crashes[0].at, SimTime::seconds(100));
  EXPECT_EQ(r.faults.server_crashes[0].restore_at, SimTime::infinity());
  EXPECT_EQ(r.faults.trace_file, "traces/seti.csv");
  EXPECT_EQ(r.project.snapshot_period, SimTime::seconds(45));
  EXPECT_FALSE(r.faults.empty());

  // A scenario without faults serializes without a <faults> block at all.
  core::Scenario plain;
  EXPECT_EQ(core::scenario_to_xml(plain).find("<faults>"), std::string::npos);
}

}  // namespace
}  // namespace vcmr
