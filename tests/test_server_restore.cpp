// Server crash/restore: scheduler/daemon state loss at a timed instant,
// restore from the latest DB snapshot, and reconciliation of in-flight
// results via resend_lost_results.
//
// The crash model: every daemon stops, the scheduler answers 503, and all
// CGI soft state is discarded; the storage tier keeps serving staged files.
// Restore reloads the last periodic DB snapshot (id counters keep their
// floors so post-snapshot ids are never recycled) and restarts the daemons;
// the JobTracker keeps its job state in those tables.

#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "core/cluster.h"
#include "db/database.h"
#include "fault/fault.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"

namespace vcmr {
namespace {

std::string corpus(Bytes size, std::uint64_t seed) {
  common::RngStreamFactory f(seed);
  common::Rng rng = f.stream("corpus");
  mr::ZipfOptions zo;
  zo.vocabulary = 500;
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

// Same shape as the fault-test harness: word-count on 6 hosts finishing at
// t ~ 110 s fault-free, with a short report deadline so deadline-bound
// recovery stays inside the run.
core::Scenario crash_scenario(const std::string& text) {
  core::Scenario s;
  s.seed = 17;
  s.n_nodes = 6;
  s.n_maps = 4;
  s.n_reducers = 2;
  s.input_text = text;
  s.boinc_mr = true;
  s.project.delay_bound = SimTime::minutes(3);
  s.project.snapshot_period = SimTime::seconds(20);
  s.time_limit = SimTime::hours(12);
  // Maps report their results around t = 60-75; a crash at 70 restoring the
  // t = 60 snapshot loses reports landed inside [60, 70).
  fault::ServerCrash sc;
  sc.at = SimTime::seconds(70);
  sc.restore_at = SimTime::seconds(85);
  s.faults.server_crashes.push_back(sc);
  return s;
}

TEST(ServerRestore, MidJobCrashRecoversWithoutDeadlineWait) {
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = crash_scenario(text);
  s.project.resend_lost_results = true;
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();

  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 4, 2));
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_crash"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_restore"), 1);
  EXPECT_FALSE(cluster.project().crashed());
  // Snapshots kept coming: at start, on the 15 s cadence before the crash,
  // and again after the restore.
  EXPECT_GE(cluster.project().snapshots_taken(), 3);
  // Work reported inside the lost window rolled back to in-progress and was
  // reconciled away on the holders' next RPC...
  EXPECT_GE(out.results_lost, 1);
  // ...so recovery is RPC-bound, not deadline-bound: well under the 3-minute
  // report deadline that a resend-less server would have waited out.
  EXPECT_LT(out.metrics.total_seconds, 220.0);

  // No workunit was lost and none double-validated: every WU of the job has
  // exactly one canonical result, present among its own results.
  const db::Database& db = cluster.project().database();
  db.for_each_workunit([&](const db::WorkUnitRecord& wu) {
    EXPECT_TRUE(wu.canonical_found) << wu.name;
    EXPECT_FALSE(wu.error_mass) << wu.name;
    int canonical_hits = 0;
    for (const ResultId rid : db.results_of(wu.id)) {
      if (rid == wu.canonical_result) ++canonical_hits;
    }
    EXPECT_EQ(canonical_hits, 1) << wu.name;
  });
}

TEST(ServerRestore, ResendBeatsDeadlineBoundRecovery) {
  const std::string text = corpus(150 * 1024, 31);

  // Mechanism off: the rolled-back results sit kInProgress until their
  // report deadline passes; the job still completes, eventually.
  core::Scenario off = crash_scenario(text);
  core::Cluster slow(off);
  const core::RunOutcome deadline_bound = slow.run_job();

  // Mechanism on: reconciliation re-issues them on the first post-restore
  // RPC from each holder.
  core::Scenario on = crash_scenario(text);
  on.project.resend_lost_results = true;
  core::Cluster fast(on);
  const core::RunOutcome reconciled = fast.run_job();

  ASSERT_TRUE(deadline_bound.metrics.completed);
  ASSERT_TRUE(reconciled.metrics.completed);
  EXPECT_EQ(slow.collect_output(deadline_bound.job), oracle(text, 4, 2));
  EXPECT_EQ(fast.collect_output(reconciled.job), oracle(text, 4, 2));
  EXPECT_LT(reconciled.metrics.total_seconds,
            deadline_bound.metrics.total_seconds);
}

TEST(ServerRestore, CrashWithoutRestoreHitsTimeLimit) {
  // The server never comes back: clients back off against 503s forever and
  // the run ends at the time limit with the job unfinished.
  const std::string text = corpus(40 * 1024, 31);
  core::Scenario s = crash_scenario(text);
  s.faults.server_crashes[0].restore_at = SimTime::infinity();
  s.time_limit = SimTime::minutes(30);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  EXPECT_FALSE(out.metrics.completed);
  EXPECT_TRUE(out.hit_time_limit);
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_crash"), 1);
  EXPECT_EQ(fault::injections(cluster.metrics(), "server_restore"), 0);
  EXPECT_TRUE(cluster.project().crashed());
}

TEST(ServerRestore, RestoredJobKeepsItsReduceCost) {
  // The t = 60 snapshot predates the reduce work units, so the restored
  // server creates them from the job's restored record. They must cost what
  // they cost in a crash-free run of the same job.
  struct Run {
    std::map<std::string, double> reduce_flops;
    SimTime map_done;
  };
  const auto run = [](const core::Scenario& s) {
    core::Cluster cluster(s);
    const core::RunOutcome out = cluster.run_job();
    EXPECT_TRUE(out.metrics.completed);
    const db::Database& db = cluster.project().database();
    Run r;
    for (const WorkUnitId wid :
         db.workunits_of_job(out.job, db::MrPhase::kReduce)) {
      r.reduce_flops[db.workunit(wid).name] = db.workunit(wid).flops_est;
    }
    r.map_done = db.mr_job(out.job).map_done;
    return r;
  };
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario crashed = crash_scenario(text);
  crashed.project.resend_lost_results = true;
  core::Scenario clean = crashed;
  clean.faults.server_crashes.clear();
  const Run want = run(clean);
  const Run got = run(crashed);
  // The map phase ended after the t = 85 restore, so the restored server
  // created every reduce work unit.
  EXPECT_GT(got.map_done, SimTime::seconds(85));
  ASSERT_EQ(want.reduce_flops.size(), 2u);
  EXPECT_EQ(got.reduce_flops, want.reduce_flops);
}

// --- snapshot/restore unit behaviour ----------------------------------------

TEST(DatabaseRestore, PreservesIdFloorsAcrossRestore) {
  db::Database db;
  const AppId app = db.create_app("word_count").id;
  db::WorkUnitRecord wu_proto;
  wu_proto.name = "wu0";
  wu_proto.app = app;
  const WorkUnitId wu = db.create_workunit(wu_proto).id;
  db::ResultRecord r_proto;
  r_proto.name = "r0";
  r_proto.wu = wu;
  const ResultId r0 = db.create_result(r_proto).id;

  const std::string snapshot = db.save();

  r_proto.name = "r1_lost_in_crash";
  const ResultId r1 = db.create_result(r_proto).id;

  db.restore_from(snapshot);
  EXPECT_EQ(db.result_count(), 1u);          // the post-snapshot row is gone
  EXPECT_NO_THROW(db.result(r0));
  EXPECT_THROW(db.result(r1), Error);

  // New rows never recycle the dead id: clients may still hold r1.
  r_proto.name = "r2_after_restore";
  const ResultId r2 = db.create_result(r_proto).id;
  EXPECT_GT(r2.value(), r1.value());
  EXPECT_EQ(db.workunit(wu).name, "wu0");
}

}  // namespace
}  // namespace vcmr
