// Tests for the project database: record lifecycle, queries the daemons
// rely on, and the save/load snapshot round trip.

#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "common/error.h"
#include "core/cluster.h"
#include "db/database.h"

namespace vcmr::db {
namespace {

WorkUnitRecord wu_proto(const std::string& name, AppId app) {
  WorkUnitRecord wu;
  wu.name = name;
  wu.app = app;
  return wu;
}

/// The unsent results outside the audit queue, across every job shard.
std::set<ResultId> unsent_bulk(const Database& db) {
  std::set<ResultId> out;
  for (const auto& [job, ids] : db.unsent_bulk_by_job()) {
    out.insert(ids.begin(), ids.end());
  }
  return out;
}

TEST(Database, CreateAndLookup) {
  Database db;
  const AppRecord& app = db.create_app("word_count");
  EXPECT_EQ(app.name, "word_count");
  EXPECT_EQ(db.app(app.id).name, "word_count");

  HostRecord hp;
  hp.node = NodeId{3};
  hp.flops = 2e9;
  const HostRecord& host = db.create_host(hp);
  EXPECT_EQ(host.name, "host1");  // auto-named
  EXPECT_EQ(db.host(host.id).flops, 2e9);
}

TEST(Database, UnknownIdThrows) {
  Database db;
  EXPECT_THROW(db.host(HostId{42}), Error);
  EXPECT_THROW(db.workunit(WorkUnitId{1}), Error);
  EXPECT_THROW(db.result(ResultId{1}), Error);
}

TEST(Database, FileNamesUnique) {
  Database db;
  FileRecord f;
  f.name = "input0";
  db.create_file(f);
  EXPECT_THROW(db.create_file(f), Error);
  EXPECT_TRUE(db.find_file_by_name("input0").has_value());
  EXPECT_FALSE(db.find_file_by_name("nope").has_value());
}

TEST(Database, ResultsIndexByWorkUnit) {
  Database db;
  const AppRecord& app = db.create_app("a");
  const WorkUnitRecord& wu = db.create_workunit(wu_proto("wu0", app.id));
  ResultRecord rp;
  rp.wu = wu.id;
  const ResultRecord& r1 = db.create_result(rp);
  const ResultRecord& r2 = db.create_result(rp);
  EXPECT_EQ(r1.name, "wu0_0");
  EXPECT_EQ(r2.name, "wu0_1");
  const auto rs = db.results_of(wu.id);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0], r1.id);
}

TEST(Database, UnsentQuery) {
  Database db;
  const AppRecord& app = db.create_app("a");
  const WorkUnitRecord& wu = db.create_workunit(wu_proto("wu0", app.id));
  ResultRecord rp;
  rp.wu = wu.id;
  rp.server_state = ServerState::kUnsent;
  const ResultRecord& r1 = db.create_result(rp);
  rp.server_state = ServerState::kInProgress;
  db.create_result(rp);
  EXPECT_EQ(unsent_bulk(db), std::set<ResultId>{r1.id});
  EXPECT_TRUE(db.unsent_audit().empty());
}

// The ready-queue indexes must track every state transition: create,
// assign, return to unsent, and audit reclassification of a work unit's
// pending results.
TEST(Database, UnsentIndexTracksTransitions) {
  Database db;
  const AppRecord& app = db.create_app("a");
  const WorkUnitRecord& wu = db.create_workunit(wu_proto("wu0", app.id));
  ResultRecord rp;
  rp.wu = wu.id;
  rp.server_state = ServerState::kUnsent;
  const ResultId r1 = db.create_result(rp).id;
  const ResultId r2 = db.create_result(rp).id;
  EXPECT_EQ(unsent_bulk(db).size(), 2u);
  EXPECT_TRUE(db.unsent_audit().empty());
  ASSERT_EQ(db.unsent_bulk_by_job().size(), 1u);

  db.set_server_state(r1, ServerState::kInProgress);
  EXPECT_EQ(unsent_bulk(db), std::set<ResultId>{r2});
  db.set_server_state(r1, ServerState::kUnsent);
  EXPECT_EQ(unsent_bulk(db), (std::set<ResultId>{r1, r2}));

  // Flipping the work unit to audit moves its pending results between
  // queues; results already handed out are untouched.
  db.set_server_state(r2, ServerState::kInProgress);
  db.set_workunit_audit(wu.id, true);
  EXPECT_EQ(db.unsent_audit(), std::set<ResultId>{r1});
  EXPECT_TRUE(db.unsent_bulk_by_job().empty());
}

// Snapshot load rebuilds the ready queues from the restored tables.
TEST(Database, UnsentIndexSurvivesSnapshotRoundTrip) {
  Database db;
  const AppRecord& app = db.create_app("a");
  const WorkUnitRecord& bulk_wu = db.create_workunit(wu_proto("wu0", app.id));
  WorkUnitRecord audit_proto = wu_proto("wu1", app.id);
  audit_proto.audit = true;
  const WorkUnitRecord& audit_wu = db.create_workunit(audit_proto);
  ResultRecord rp;
  rp.wu = bulk_wu.id;
  rp.server_state = ServerState::kUnsent;
  const ResultId rb = db.create_result(rp).id;
  rp.wu = audit_wu.id;
  const ResultId ra = db.create_result(rp).id;
  rp.wu = bulk_wu.id;
  rp.server_state = ServerState::kInProgress;
  db.create_result(rp);

  const Database loaded = Database::load(db.save());
  EXPECT_EQ(unsent_bulk(loaded), std::set<ResultId>{rb});
  EXPECT_EQ(loaded.unsent_audit(), std::set<ResultId>{ra});
  EXPECT_EQ(loaded.unsent_bulk_by_job(), db.unsent_bulk_by_job());
}

TEST(Database, TimedOutQuery) {
  Database db;
  const AppRecord& app = db.create_app("a");
  const WorkUnitRecord& wu = db.create_workunit(wu_proto("wu0", app.id));
  ResultRecord rp;
  rp.wu = wu.id;
  rp.server_state = ServerState::kInProgress;
  rp.report_deadline = SimTime::seconds(100);
  const ResultRecord& r = db.create_result(rp);
  EXPECT_TRUE(db.timed_out_results(SimTime::seconds(50)).empty());
  const auto late = db.timed_out_results(SimTime::seconds(100));
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0], r.id);
}

TEST(Database, TransitionFlags) {
  Database db;
  const AppRecord& app = db.create_app("a");
  const WorkUnitRecord& wu = db.create_workunit(wu_proto("wu0", app.id));
  // Newborn WUs are flagged.
  auto pending = db.transition_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], wu.id);
  db.clear_transition(wu.id);
  EXPECT_TRUE(db.transition_pending().empty());
  db.flag_transition(wu.id);
  EXPECT_EQ(db.transition_pending().size(), 1u);
}

TEST(Database, JobPhaseQuery) {
  Database db;
  const AppRecord& app = db.create_app("a");
  MrJobRecord jp;
  jp.name = "job";
  jp.app = app.id;
  const MrJobRecord& job = db.create_mr_job(jp);
  WorkUnitRecord wp = wu_proto("m0", app.id);
  wp.mr_phase = MrPhase::kMap;
  wp.mr_job = job.id;
  db.create_workunit(wp);
  wp.name = "r0";
  wp.mr_phase = MrPhase::kReduce;
  db.create_workunit(wp);
  EXPECT_EQ(db.workunits_of_job(job.id, MrPhase::kMap).size(), 1u);
  EXPECT_EQ(db.workunits_of_job(job.id, MrPhase::kReduce).size(), 1u);
}

TEST(Database, InProgressOnHost) {
  Database db;
  const AppRecord& app = db.create_app("a");
  const WorkUnitRecord& wu = db.create_workunit(wu_proto("wu0", app.id));
  ResultRecord rp;
  rp.wu = wu.id;
  rp.server_state = ServerState::kInProgress;
  rp.host = HostId{5};
  db.create_result(rp);
  rp.host = HostId{6};
  db.create_result(rp);
  EXPECT_EQ(db.in_progress_on_host(HostId{5}).size(), 1u);
  EXPECT_EQ(db.in_progress_on_host(HostId{7}).size(), 0u);
}

TEST(Database, SnapshotRoundTrip) {
  Database db;
  const AppRecord& app = db.create_app("word_count");
  HostRecord hp;
  hp.node = NodeId{2};
  hp.flops = 3e9;
  hp.mr_capable = true;
  hp.mr_endpoint = {NodeId{2}, 31416};
  const HostRecord& host = db.create_host(hp);

  FileRecord fp;
  fp.name = "job_map_0_input";
  fp.size = 50'000'000;
  fp.digest = common::Hasher::of("x");
  fp.on_server = true;
  fp.reduce_partition = 3;
  const FileRecord& file = db.create_file(fp);

  MrJobRecord jp;
  jp.name = "job";
  jp.app = app.id;
  jp.n_maps = 4;
  jp.n_reducers = 2;
  jp.input_size = 200'000'000;
  jp.maps_validated = 3;
  jp.reduces_assimilated = 1;
  jp.reduce_created = true;
  jp.map_first_sent = SimTime::seconds(12);
  MapOutputLocation loc;
  loc.map_index = 1;
  loc.reduce_partition = 0;
  loc.file = file.id;
  loc.holder = host.id;
  loc.endpoint = {NodeId{2}, 31416};
  jp.map_outputs.push_back(loc);
  const MrJobRecord& job = db.create_mr_job(jp);

  WorkUnitRecord wp = wu_proto("job_map_0", app.id);
  wp.input_files.push_back(file.id);
  wp.mr_phase = MrPhase::kMap;
  wp.mr_job = job.id;
  wp.mr_index = 0;
  wp.flops_est = 1.5e9;
  const WorkUnitRecord& wu = db.create_workunit(wp);

  ResultRecord rp;
  rp.wu = wu.id;
  rp.server_state = ServerState::kOver;
  rp.outcome = Outcome::kSuccess;
  rp.validate_state = ValidateState::kValid;
  rp.host = host.id;
  rp.sent_time = SimTime::seconds(5);
  rp.received_time = SimTime::seconds(80);
  rp.output_digest = common::Hasher::of("out");
  rp.output_files.push_back(file.id);
  const ResultRecord& res = db.create_result(rp);

  const std::string snap = db.save();
  const Database loaded = Database::load(snap);

  EXPECT_EQ(loaded.app(app.id).name, "word_count");
  EXPECT_EQ(loaded.host(host.id).mr_endpoint.port, 31416);
  EXPECT_TRUE(loaded.host(host.id).mr_capable);
  EXPECT_EQ(loaded.file(file.id).size, 50'000'000);
  EXPECT_EQ(loaded.file(file.id).reduce_partition, 3);
  EXPECT_EQ(loaded.workunit(wu.id).flops_est, 1.5e9);
  EXPECT_EQ(loaded.workunit(wu.id).mr_phase, MrPhase::kMap);
  ASSERT_EQ(loaded.workunit(wu.id).input_files.size(), 1u);
  EXPECT_EQ(loaded.result(res.id).output_digest, common::Hasher::of("out"));
  EXPECT_EQ(loaded.result(res.id).received_time, SimTime::seconds(80));
  EXPECT_EQ(loaded.mr_job(job.id).n_maps, 4);
  EXPECT_EQ(loaded.mr_job(job.id).input_size, 200'000'000);
  EXPECT_EQ(loaded.mr_job(job.id).maps_validated, 3);
  EXPECT_EQ(loaded.mr_job(job.id).reduces_assimilated, 1);
  EXPECT_TRUE(loaded.mr_job(job.id).reduce_created);
  EXPECT_EQ(loaded.mr_job(job.id).map_first_sent, SimTime::seconds(12));
  ASSERT_EQ(loaded.mr_job(job.id).map_outputs.size(), 1u);
  EXPECT_EQ(loaded.mr_job(job.id).map_outputs[0].endpoint.port, 31416);
  EXPECT_EQ(loaded.results_of(wu.id).size(), 1u);
  EXPECT_EQ(loaded.find_workunit_by_name("job_map_0"), wu.id);

  // A snapshot written before a job row carried its progress reads it as 0.
  const std::regex progress(
      "<(input_size|maps_validated|reduces_assimilated|reduce_created)>"
      "[^<]*</[a-z_]+>");
  const std::string old_snap = std::regex_replace(snap, progress, "");
  ASSERT_NE(old_snap, snap);
  const Database old_db = Database::load(old_snap);
  const MrJobRecord& old_job = old_db.mr_job(job.id);
  EXPECT_EQ(old_job.input_size, 0);
  EXPECT_EQ(old_job.maps_validated, 0);
  EXPECT_EQ(old_job.reduces_assimilated, 0);
  EXPECT_FALSE(old_job.reduce_created);
  EXPECT_EQ(old_job.n_maps, 4);
}

TEST(Database, SnapshotPreservesIdAllocation) {
  Database db;
  const AppRecord& app = db.create_app("a");
  db.create_workunit(wu_proto("w1", app.id));
  Database loaded = Database::load(db.save());
  const WorkUnitRecord& w2 = loaded.create_workunit(wu_proto("w2", app.id));
  EXPECT_GT(w2.id.value(), loaded.find_workunit_by_name("w1")->value());
}

TEST(Database, LoadRejectsGarbage) {
  EXPECT_THROW(Database::load("<not_a_db/>"), Error);
  EXPECT_THROW(Database::load("garbage"), Error);
}

TEST(Database, MidJobSnapshotRoundTripsInFlightState) {
  // Freeze a live cluster mid-job (time limit inside the map phase) and
  // snapshot the database while results are still in progress: the
  // round-trip must be idempotent byte-for-byte, so escalation and
  // replication state of unfinished work — server_state, deadlines, audit
  // flags, adjusted target_nresults — survives a save/load/save cycle.
  core::Scenario s;
  s.seed = 13;
  s.n_nodes = 6;
  s.n_maps = 8;
  s.n_reducers = 2;
  s.input_size = 100'000'000;
  s.boinc_mr = true;
  // Adaptive replication with instant trust and certain spot-checks, so
  // audit escalations exist in flight when the clock stops.
  s.project.reputation.mode = rep::PolicyMode::kAdaptive;
  s.project.reputation.min_consecutive_valid = 1;
  s.project.reputation.max_error_rate = 0.2;
  s.project.reputation.spot_check_probability = 1.0;
  s.time_limit = SimTime::seconds(210);  // mid-reduce: audits + work in flight
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_FALSE(out.metrics.completed);
  ASSERT_TRUE(out.hit_time_limit);

  const Database& db = cluster.project().database();
  int in_progress = 0;
  db.for_each_result([&](const ResultRecord& r) {
    if (r.server_state == ServerState::kInProgress) ++in_progress;
  });
  ASSERT_GT(in_progress, 0);  // genuinely mid-job
  int audits = 0;
  db.for_each_workunit([&](const WorkUnitRecord& w) {
    if (w.audit) ++audits;
  });
  ASSERT_GT(audits, 0);  // spot-check escalations in flight

  const std::string snap = db.save();
  const Database loaded = Database::load(snap);
  EXPECT_EQ(loaded.save(), snap);  // idempotent: every field round-trips

  EXPECT_EQ(loaded.workunit_count(), db.workunit_count());
  EXPECT_EQ(loaded.result_count(), db.result_count());
  int loaded_in_progress = 0;
  loaded.for_each_result([&](const ResultRecord& r) {
    if (r.server_state == ServerState::kInProgress) ++loaded_in_progress;
  });
  EXPECT_EQ(loaded_in_progress, in_progress);
  db.for_each_workunit([&](const WorkUnitRecord& w) {
    const WorkUnitRecord& l = loaded.workunit(w.id);
    EXPECT_EQ(l.audit, w.audit) << w.name;
    EXPECT_EQ(l.target_nresults, w.target_nresults) << w.name;
    EXPECT_EQ(l.min_quorum, w.min_quorum) << w.name;
    EXPECT_EQ(l.delay_bound, w.delay_bound) << w.name;
  });
  db.for_each_result([&](const ResultRecord& r) {
    const ResultRecord& l = loaded.result(r.id);
    EXPECT_EQ(l.server_state, r.server_state) << r.name;
    EXPECT_EQ(l.report_deadline, r.report_deadline) << r.name;
    EXPECT_EQ(l.sent_time, r.sent_time) << r.name;
  });
}

}  // namespace
}  // namespace vcmr::db
