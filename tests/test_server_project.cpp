// Tests for the JobTracker and Scheduler through the assembled Project,
// driving the scheduler synchronously via process() (no clients needed).

#include <gtest/gtest.h>

#include <optional>

#include "common/error.h"
#include "net/http.h"
#include "obs/metrics.h"
#include "server/project.h"
#include "sim/simulation.h"

namespace vcmr::server {
namespace {

struct ProjectFixture {
  sim::Simulation sim{11};
  net::Network net{sim};
  net::HttpService http{net};
  NodeId server_node;
  std::unique_ptr<Project> project;

  explicit ProjectFixture(ProjectConfig cfg = {}) {
    server_node = net.add_node(net::NodeConfig{});
    project = std::make_unique<Project>(sim, http, server_node, cfg);
  }

  HostId add_host(bool mr_capable = true) {
    const NodeId node = net.add_node(net::NodeConfig{});
    db::HostRecord hp;
    hp.node = node;
    hp.flops = 1e9;
    hp.mr_capable = mr_capable;
    hp.mr_endpoint = {node, 31416};
    return project->database().create_host(hp).id;
  }

  proto::SchedulerReply ask_for_work(HostId host, bool mr_capable = true) {
    proto::SchedulerRequest req;
    req.host_id = host.value();
    req.work_request_seconds = 600;
    req.mr_capable = mr_capable;
    req.serving_endpoint = project->database().host(host).mr_endpoint;
    return project->scheduler().process(req);
  }

  /// Drives the daemons a few virtual seconds forward.
  void tick(double seconds = 30) {
    project->start();
    sim.run(sim.now() + SimTime::seconds(seconds));
  }

  void report_success(HostId host, const proto::AssignedTask& task,
                      const std::string& digest_seed,
                      int n_partitions = 0) {
    proto::SchedulerRequest req;
    req.host_id = host.value();
    req.mr_capable = true;
    req.serving_endpoint = project->database().host(host).mr_endpoint;
    proto::ReportedResult rep;
    rep.result_id = task.result_id;
    rep.name = task.result_name;
    rep.success = true;
    rep.digest = common::Hasher::of(digest_seed);
    for (int p = 0; p < n_partitions; ++p) {
      proto::OutputFileInfo f;
      f.name = task.result_name + ".part" + std::to_string(p);
      f.size = 1000 + p;
      f.digest = common::Hasher::of(digest_seed + std::to_string(p));
      f.uploaded = true;
      f.reduce_partition = p;
      rep.outputs.push_back(f);
    }
    if (task.phase == proto::TaskPhase::kReduce) {
      proto::OutputFileInfo f;
      f.name = task.result_name + ".out";
      f.size = 500;
      f.uploaded = true;
      rep.outputs.push_back(f);
    }
    rep.output_bytes = 1000;
    req.reports.push_back(rep);
    project->scheduler().process(req);
  }
};

MrJobSpec small_job(int maps = 3, int reducers = 2) {
  MrJobSpec spec;
  spec.name = "job";
  spec.app = "word_count";
  spec.n_maps = maps;
  spec.n_reducers = reducers;
  spec.input_size = 30'000'000;
  return spec;
}

TEST(JobTracker, SubmitStagesInputsAndWorkUnits) {
  ProjectFixture f;
  const MrJobId job = f.project->submit_job(small_job());
  auto& db = f.project->database();
  EXPECT_EQ(db.workunits_of_job(job, db::MrPhase::kMap).size(), 3u);
  EXPECT_EQ(db.workunits_of_job(job, db::MrPhase::kReduce).size(), 0u);
  EXPECT_EQ(db.file_count(), 3u);
  EXPECT_TRUE(f.project->storage().has("job_map_0_input"));
  // Chunk sizes partition the input.
  Bytes total = 0;
  db.for_each_workunit([&](const db::WorkUnitRecord& wu) {
    ASSERT_EQ(wu.input_files.size(), 1u);
    total += db.file(wu.input_files[0]).size;
    EXPECT_GT(wu.flops_est, 0);
  });
  EXPECT_EQ(total, 30'000'000);
}

TEST(JobTracker, SubmitRejectsUnknownApp) {
  ProjectFixture f;
  MrJobSpec spec = small_job();
  spec.app = "nonexistent";
  EXPECT_THROW(f.project->submit_job(spec), Error);
}

TEST(Scheduler, AssignsMapWorkAfterFeederRuns) {
  ProjectFixture f;
  f.project->submit_job(small_job());
  const HostId h = f.add_host();
  // Before the daemons run there are no results to feed.
  EXPECT_FALSE(f.ask_for_work(h).had_work);
  f.tick();
  const proto::SchedulerReply reply = f.ask_for_work(h);
  ASSERT_TRUE(reply.had_work);
  ASSERT_FALSE(reply.tasks.empty());
  const proto::AssignedTask& t = reply.tasks[0];
  EXPECT_EQ(t.phase, proto::TaskPhase::kMap);
  EXPECT_EQ(t.app, "word_count");
  EXPECT_EQ(t.n_reducers, 2);
  ASSERT_EQ(t.inputs.size(), 1u);
  EXPECT_TRUE(t.inputs[0].on_server);
}

// Over HTTP the scheduler takes the typed request off the wire and answers
// with a typed reply; its wire counters carry the sizes the network
// charged. A request with no SchedulerRequest payload is an error.
TEST(Scheduler, HttpRpcCarriesTypedMessagesAtChargedSize) {
  obs::ScopedMetricsRegistry metrics;
  ProjectFixture f;
  const HostId host = f.add_host();
  const NodeId node = f.project->database().host(host).node;
  f.project->start();

  proto::SchedulerRequest req;
  req.host_id = host.value();
  req.mr_capable = true;
  req.serving_endpoint = f.project->database().host(host).mr_endpoint;
  req.cached_files = {"a&b"};
  const Bytes in = proto::wire_size(req);
  net::HttpRequest hreq;
  hreq.method = "POST";
  hreq.body_size = in;
  hreq.body = req;
  std::optional<proto::SchedulerReply> reply;
  Bytes out = 0;
  f.http.request(node, f.project->scheduler_endpoint(), std::move(hreq),
                 [&](const net::HttpResponse& resp) {
                   ASSERT_TRUE(resp.ok());
                   reply = std::any_cast<proto::SchedulerReply>(resp.body);
                   out = resp.body_size;
                 });
  f.sim.run(f.sim.now() + SimTime::seconds(10));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(out, proto::wire_size(*reply));
  EXPECT_EQ(out, static_cast<Bytes>(proto::to_xml(*reply).size()));
  EXPECT_EQ(metrics.registry().counter_value("scheduler", "wire_bytes_in"),
            in);
  EXPECT_EQ(metrics.registry().counter_value("scheduler", "wire_bytes_out"),
            out);

  net::HttpRequest bare;
  bare.method = "POST";
  f.http.request(node, f.project->scheduler_endpoint(), std::move(bare),
                 [](const net::HttpResponse&) {});
  EXPECT_THROW(f.sim.run(f.sim.now() + SimTime::seconds(10)), Error);
}

TEST(Scheduler, OneResultPerHostPerWorkUnit) {
  ProjectFixture f;
  f.project->submit_job(small_job(1, 1));  // 1 WU → 2 replica results
  const HostId h = f.add_host();
  f.tick();
  const auto r1 = f.ask_for_work(h);
  ASSERT_EQ(r1.tasks.size(), 1u);
  // Same host asks again: the sibling replica must not go to it.
  const auto r2 = f.ask_for_work(h);
  EXPECT_TRUE(r2.tasks.empty());
  // A different host gets it.
  const HostId h2 = f.add_host();
  const auto r3 = f.ask_for_work(h2);
  ASSERT_EQ(r3.tasks.size(), 1u);
  EXPECT_EQ(r3.tasks[0].wu_name, r1.tasks[0].wu_name);
  EXPECT_NE(r3.tasks[0].result_id, r1.tasks[0].result_id);
}

TEST(Scheduler, MaxWusInProgressEnforced) {
  ProjectConfig cfg;
  cfg.max_wus_in_progress = 2;
  ProjectFixture f(cfg);
  f.project->submit_job(small_job(8, 1));
  const HostId h = f.add_host();
  f.tick();
  const auto reply = f.ask_for_work(h);
  EXPECT_EQ(reply.tasks.size(), 2u);
}

TEST(Scheduler, ReportAdvancesResultAndRecordsFiles) {
  ProjectFixture f;
  f.project->submit_job(small_job(1, 2));
  const HostId h = f.add_host();
  f.tick();
  const auto reply = f.ask_for_work(h);
  ASSERT_EQ(reply.tasks.size(), 1u);
  f.report_success(h, reply.tasks[0], "digest", 2);

  auto& db = f.project->database();
  const db::ResultRecord& r = db.result(ResultId{reply.tasks[0].result_id});
  EXPECT_EQ(r.server_state, db::ServerState::kOver);
  EXPECT_EQ(r.outcome, db::Outcome::kSuccess);
  ASSERT_EQ(r.output_files.size(), 2u);
  EXPECT_EQ(db.file(r.output_files[1]).reduce_partition, 1);
  EXPECT_EQ(db.file(r.output_files[0]).on_host, h);
}

TEST(Scheduler, LateReportIgnored) {
  obs::ScopedMetricsRegistry metrics;
  const auto late_reports = [&] {
    return metrics.registry().counter_total("scheduler", "late_reports");
  };
  ProjectFixture f;
  f.project->submit_job(small_job(1, 1));
  const HostId h = f.add_host();
  f.tick();
  const auto reply = f.ask_for_work(h);
  ASSERT_EQ(reply.tasks.size(), 1u);
  f.report_success(h, reply.tasks[0], "d", 1);
  const auto before = late_reports();
  f.report_success(h, reply.tasks[0], "d", 1);  // duplicate
  EXPECT_EQ(late_reports(), before + 1);

  proto::SchedulerRequest bogus;
  bogus.host_id = h.value();
  proto::ReportedResult rep;
  rep.result_id = 99999;
  bogus.reports.push_back(rep);
  f.project->scheduler().process(bogus);
  EXPECT_EQ(late_reports(), before + 2);
}

TEST(JobTracker, MapQuorumCreatesReduceWithLocations) {
  ProjectFixture f;
  f.project->submit_job(small_job(2, 2));
  const HostId h1 = f.add_host();
  const HostId h2 = f.add_host();
  f.tick();

  // Each host executes one replica of each map WU.
  for (const HostId h : {h1, h2}) {
    auto reply = f.ask_for_work(h);
    for (const auto& t : reply.tasks) {
      f.report_success(h, t, t.wu_name, 2);  // digest keyed by WU → quorum
    }
    // Hosts may need a second ask for the second WU.
    reply = f.ask_for_work(h);
    for (const auto& t : reply.tasks) {
      f.report_success(h, t, t.wu_name, 2);
    }
  }
  f.tick();  // validator + jobtracker run

  auto& db = f.project->database();
  const auto reduce_wus =
      db.workunits_of_job(MrJobId{1}, db::MrPhase::kReduce);
  ASSERT_EQ(reduce_wus.size(), 2u);

  const auto locs = f.project->jobtracker().locations_for(MrJobId{1}, 0);
  ASSERT_EQ(locs.size(), 2u);  // one per map
  EXPECT_EQ(locs[0].map_index, 0);
  EXPECT_EQ(locs[1].map_index, 1);
  EXPECT_TRUE(f.project->jobtracker().locations_complete(MrJobId{1}));

  // Reduce assignment carries the mapper endpoints.
  const HostId h3 = f.add_host();
  const auto reply = f.ask_for_work(h3);
  ASSERT_FALSE(reply.tasks.empty());
  EXPECT_EQ(reply.tasks[0].phase, proto::TaskPhase::kReduce);
  ASSERT_EQ(reply.tasks[0].inputs.size(), 2u);
  ASSERT_EQ(reply.tasks[0].inputs[0].peers.size(), 1u);
  EXPECT_EQ(reply.tasks[0].inputs[0].peers[0].endpoint.port, 31416);
}

TEST(JobTracker, PipelinedModeCreatesReduceEarly) {
  ProjectConfig cfg;
  cfg.pipelined_reduce = true;
  ProjectFixture f(cfg);
  f.project->submit_job(small_job(3, 1));
  const HostId h1 = f.add_host();
  const HostId h2 = f.add_host();
  f.tick();

  // Validate just ONE of the three map WUs.
  const auto r1 = f.ask_for_work(h1);
  const auto r2 = f.ask_for_work(h2);
  ASSERT_FALSE(r1.tasks.empty());
  const proto::AssignedTask* t1 = &r1.tasks[0];
  const proto::AssignedTask* t2 = nullptr;
  for (const auto& t : r2.tasks) {
    if (t.wu_name == t1->wu_name) t2 = &t;
  }
  ASSERT_NE(t2, nullptr);
  f.report_success(h1, *t1, t1->wu_name, 1);
  f.report_success(h2, *t2, t2->wu_name, 1);
  f.tick();

  auto& db = f.project->database();
  EXPECT_EQ(db.workunits_of_job(MrJobId{1}, db::MrPhase::kReduce).size(), 1u);
  EXPECT_FALSE(f.project->jobtracker().locations_complete(MrJobId{1}));
  EXPECT_EQ(f.project->jobtracker().locations_for(MrJobId{1}, 0).size(), 1u);
}

// Every field JobTracker writes into a staged work unit, pinned for a
// chunked job, a shared-input sweep and the reduce work units created once
// the maps validate, under fixed and under adaptive replication.
struct StagedWu {
  std::string name;
  db::MrPhase phase;
  int index;
  double flops;
  std::vector<std::pair<std::int64_t, std::string>> inputs;  ///< id, name
};

ProjectConfig staging_config(rep::PolicyMode mode) {
  ProjectConfig cfg;
  cfg.reputation.mode = mode;
  cfg.target_nresults = 3;
  cfg.min_quorum = 2;
  cfg.max_error_results = 5;
  cfg.max_total_results = 9;
  cfg.delay_bound = SimTime::micros(2'700'123'457);
  return cfg;
}

void expect_staged(const db::Database& db, rep::PolicyMode mode, MrJobId job,
                   WorkUnitId id, const StagedWu& want) {
  SCOPED_TRACE(want.name);
  const db::WorkUnitRecord& wu = db.workunit(id);
  const bool adaptive = mode == rep::PolicyMode::kAdaptive;
  EXPECT_EQ(wu.name, want.name);
  EXPECT_EQ(wu.app, db.mr_job(job).app);
  EXPECT_EQ(db.app(wu.app).name, "word_count");
  EXPECT_EQ(wu.target_nresults, adaptive ? 1 : 3);
  EXPECT_EQ(wu.min_quorum, adaptive ? 1 : 2);
  EXPECT_EQ(wu.max_error_results, 5);
  EXPECT_EQ(wu.max_total_results, 9);
  EXPECT_EQ(wu.delay_bound.as_micros(), 2'700'123'457);
  EXPECT_EQ(wu.mr_phase, want.phase);
  EXPECT_EQ(wu.mr_job.value(), job.value());
  EXPECT_EQ(wu.mr_index, want.index);
  EXPECT_DOUBLE_EQ(wu.flops_est, want.flops);
  std::vector<std::pair<std::int64_t, std::string>> inputs;
  for (const FileId fid : wu.input_files) {
    inputs.emplace_back(fid.value(), db.file(fid).name);
  }
  EXPECT_EQ(inputs, want.inputs);
}

/// Reports every task the hosts are handed as a success (replicas agree)
/// until the job's reduce work units exist; returns them untouched by any
/// assignment.
std::vector<WorkUnitId> validate_maps(ProjectFixture& f, MrJobId job,
                                      int n_reducers) {
  std::vector<HostId> hosts;
  for (int i = 0; i < 4; ++i) hosts.push_back(f.add_host());
  auto& db = f.project->database();
  for (int round = 0; round < 20; ++round) {
    f.tick();
    auto reduces = db.workunits_of_job(job, db::MrPhase::kReduce);
    if (!reduces.empty()) return reduces;
    for (const HostId h : hosts) {
      for (const auto& t : f.ask_for_work(h).tasks) {
        f.report_success(h, t, t.wu_name, n_reducers);
      }
    }
  }
  return {};
}

TEST(JobTracker, StagedWorkUnitsCarryEveryField) {
  for (const rep::PolicyMode mode :
       {rep::PolicyMode::kFixed, rep::PolicyMode::kAdaptive}) {
    SCOPED_TRACE(rep::to_string(mode));
    {
      ProjectFixture f(staging_config(mode));
      const MrJobId job = f.project->submit_job(small_job(3, 2));
      const db::Database& db = f.project->database();
      const auto maps = db.workunits_of_job(job, db::MrPhase::kMap);
      ASSERT_EQ(maps.size(), 3u);
      for (int i = 0; i < 3; ++i) {
        const std::string n = std::to_string(i);
        expect_staged(db, mode, job, maps[static_cast<std::size_t>(i)],
                      {"job_map_" + n, db::MrPhase::kMap, i, 30.0 * 10'000'000,
                       {{i + 1, "job_map_" + n + "_input"}}});
      }

      const auto reduces = validate_maps(f, job, 2);
      ASSERT_EQ(reduces.size(), 2u);
      const double reduce_flops = 15.0 * (30'000'000 * 1.15) / 2;
      for (int r = 0; r < 2; ++r) {
        expect_staged(db, mode, job, reduces[static_cast<std::size_t>(r)],
                      {"job_reduce_" + std::to_string(r), db::MrPhase::kReduce,
                       r, reduce_flops, {}});
      }
    }
    {
      ProjectFixture f(staging_config(mode));
      MrJobSpec spec = small_job(3, 2);
      spec.name = "sweep";
      spec.input_size = 12'000'000;
      spec.shared_input = true;
      const MrJobId job = f.project->submit_job(spec);
      const db::Database& db = f.project->database();
      const auto maps = db.workunits_of_job(job, db::MrPhase::kMap);
      ASSERT_EQ(maps.size(), 3u);
      for (int i = 0; i < 3; ++i) {
        expect_staged(db, mode, job, maps[static_cast<std::size_t>(i)],
                      {"sweep_map_" + std::to_string(i), db::MrPhase::kMap, i,
                       30.0 * 12'000'000, {{1, "sweep_shared_input"}}});
      }
    }
  }
}

TEST(Scheduler, PlainClientSkipsReduceWithoutMirroring) {
  ProjectConfig cfg;
  cfg.mirror_map_outputs = false;
  ProjectFixture f(cfg);
  f.project->submit_job(small_job(1, 1));
  const HostId h1 = f.add_host();
  const HostId h2 = f.add_host();
  f.tick();
  for (const HostId h : {h1, h2}) {
    const auto reply = f.ask_for_work(h);
    for (const auto& t : reply.tasks) f.report_success(h, t, t.wu_name, 1);
  }
  f.tick();
  // Reduce WUs exist now; a plain (non-MR) client must not receive them.
  const HostId plain = f.add_host(/*mr_capable=*/false);
  const auto reply = f.ask_for_work(plain, /*mr_capable=*/false);
  EXPECT_TRUE(reply.tasks.empty());
  // An MR-capable client does.
  const HostId mr = f.add_host();
  EXPECT_FALSE(f.ask_for_work(mr).tasks.empty());
}

// The daemons run on sim::PeriodicTask, which refuses a cadence that would
// re-arm at the same instant forever.
TEST(Project, ZeroDaemonPeriodIsRejected) {
  ProjectConfig cfg;
  cfg.snapshot_period = SimTime::zero();
  ProjectFixture f(cfg);
  f.project->enable_snapshots();
  EXPECT_THROW(f.project->start(), Error);
}

TEST(Scheduler, ImmediateReportFlagPropagates) {
  ProjectConfig cfg;
  cfg.report_map_results_immediately = true;
  ProjectFixture f(cfg);
  const HostId h = f.add_host();
  EXPECT_TRUE(f.ask_for_work(h).report_map_results_immediately);
}

}  // namespace
}  // namespace vcmr::server
