// Behavioural tests for the Client state machine against a *scripted*
// scheduler: a hand-written HTTP handler playing the server role, so each
// test controls exactly what the client is told and observes the pull-model
// dynamics in isolation — work-fetch cadence, exponential backoff,
// upload-now/report-later, the immediate-report bypass, multi-core
// execution, and churn checkpointing.

#include <gtest/gtest.h>

#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "mr/apps.h"
#include "obs/metrics.h"
#include "store/store.h"
#include "sim/simulation.h"

namespace vcmr::client {
namespace {

struct Fixture {
  obs::ScopedMetricsRegistry metrics;  ///< first: outlives everything below
  sim::Simulation sim{31};
  net::Network net{sim};
  net::HttpService http{net};
  NodeId server_node;
  /// The project's switches the client reads; the defaults (mirroring on,
  /// every other switch off) are the plain BOINC-MR protocol.
  server::ProjectConfig project;
  std::unique_ptr<store::StorageTier> data;
  PeerRegistry registry;
  net::Endpoint sched_ep;

  // Script state.
  std::vector<proto::SchedulerRequest> requests;   ///< everything received
  std::vector<proto::AssignedTask> to_hand_out;    ///< dispensed in order
  bool report_map_results_immediately = false;
  bool reply_without_payload = false;  ///< answer 200 with an empty body

  Fixture() {
    net::NodeConfig c;
    c.latency = SimTime::millis(2);
    server_node = net.add_node(c);
    data = std::make_unique<store::StorageTier>(http, server_node);
    sched_ep = {server_node, 8080};
    http.listen(sched_ep, [this](const net::HttpRequest& req,
                                 net::HttpRespondFn respond) {
      const auto& parsed =
          std::any_cast<const proto::SchedulerRequest&>(req.body);
      EXPECT_EQ(req.body_size, proto::wire_size(parsed));
      requests.push_back(parsed);
      proto::SchedulerReply reply;
      reply.request_delay = SimTime::seconds(6);
      reply.report_map_results_immediately = report_map_results_immediately;
      if (parsed.work_request_seconds > 0 && !to_hand_out.empty()) {
        reply.tasks.push_back(to_hand_out.front());
        to_hand_out.erase(to_hand_out.begin());
      }
      reply.had_work = !reply.tasks.empty();
      net::HttpResponse resp;
      resp.body_size = proto::wire_size(reply);
      if (!reply_without_payload) resp.body = std::move(reply);
      respond(std::move(resp));
    });
  }

  std::unique_ptr<Client> make_client(ClientConfig cfg = {},
                                      HostSpec spec = {}) {
    net::NodeConfig c;
    c.latency = SimTime::millis(2);
    const NodeId node = net.add_node(c);
    db::HostRecord h;
    h.id = HostId{1};
    h.name = "host1";
    h.node = node;
    h.flops = spec.flops;
    h.mr_endpoint = {node, kMrPort};
    cfg.initial_rpc_jitter = SimTime::zero();  // deterministic first RPC
    return std::make_unique<Client>(sim, net, http, *data, sched_ep, project,
                                    h, spec, registry, nullptr, cfg);
  }

  std::int64_t tasks_completed() const {
    return metrics.registry().counter_value("client", "tasks_completed");
  }
  std::int64_t backoffs() const {
    return metrics.registry().histogram_count("client", "backoff_seconds");
  }

  /// One map task over a staged input file.
  proto::AssignedTask map_task(std::int64_t id, const std::string& content,
                               int n_reducers = 2) {
    const std::string fname = "input" + std::to_string(id);
    data->stage(fname, mr::FilePayload::of_content(content));
    proto::AssignedTask t;
    t.result_id = id;
    t.result_name = "wu" + std::to_string(id) + "_0";
    t.wu_name = "wu" + std::to_string(id);
    t.app = "word_count";
    t.phase = proto::TaskPhase::kMap;
    t.job_id = 1;
    t.mr_index = static_cast<int>(id);
    t.n_maps = 1;
    t.n_reducers = n_reducers;
    // Match the word-count cost model so the client's buffer estimate
    // mirrors the real duration.
    t.flops_estimate = 30.0 * static_cast<double>(content.size());
    t.report_deadline = SimTime::hours(4);
    proto::InputFileSpec in;
    in.name = fname;
    in.size = static_cast<Bytes>(content.size());
    in.on_server = true;
    t.inputs.push_back(in);
    return t;
  }
};

TEST(ClientBehavior, FetchesExecutesUploadsAndReportsOnNextRpc) {
  Fixture f;
  f.to_hand_out.push_back(f.map_task(1, "alpha beta alpha"));
  auto client = f.make_client();
  client->start();
  f.sim.run(SimTime::minutes(30));

  // The finished result was reported in a later RPC, not pushed.
  bool reported = false;
  for (const auto& req : f.requests) {
    for (const auto& rep : req.reports) {
      if (rep.result_id == 1) {
        reported = true;
        EXPECT_TRUE(rep.success);
        EXPECT_EQ(rep.outputs.size(), 2u);  // one file per reducer
        EXPECT_GT(rep.claimed_credit, 0);
      }
    }
  }
  EXPECT_TRUE(reported);
  EXPECT_EQ(f.tasks_completed(), 1);
  EXPECT_EQ(client->tasks_in_hand(), 0u);  // the report was acknowledged
  // Outputs were uploaded to the data server (mirroring on by default).
  EXPECT_TRUE(f.data->has("wu1_0.part0"));
  EXPECT_TRUE(f.data->has("wu1_0.part1"));
  EXPECT_TRUE(client->idle());
}

TEST(ClientBehavior, SuccessfulReplyWithoutPayloadIsAnError) {
  Fixture f;
  f.reply_without_payload = true;
  auto client = f.make_client();
  client->start();
  EXPECT_THROW(f.sim.run(SimTime::minutes(5)), Error);
}

TEST(ClientBehavior, BackoffEscalatesOnEmptyReplies) {
  Fixture f;  // never hands out work
  ClientConfig cfg;
  cfg.backoff_min = SimTime::seconds(60);
  cfg.backoff_max = SimTime::seconds(600);
  cfg.backoff_jitter = 0.0;
  auto client = f.make_client(cfg);
  client->start();
  f.sim.run(SimTime::minutes(40));

  // RPC instants: gaps must grow as 60, 120, 240, 480, 600, 600...
  ASSERT_GE(f.requests.size(), 5u);
  EXPECT_GE(f.backoffs(), 4);
  // With a 600 s cap, a 40-minute window fits only a handful of polls.
  EXPECT_LE(f.requests.size(), 9u);
}

TEST(ClientBehavior, BackoffResetsWhenWorkArrives) {
  Fixture f;
  ClientConfig cfg;
  cfg.backoff_jitter = 0.0;
  auto client = f.make_client(cfg);
  client->start();
  // Let it starve to a large backoff, then make work available.
  f.sim.run(SimTime::minutes(20));
  const auto starved_rpcs = f.requests.size();
  f.to_hand_out.push_back(f.map_task(5, "some words here"));
  f.sim.run(SimTime::minutes(60));
  EXPECT_EQ(f.tasks_completed(), 1);
  EXPECT_GT(f.requests.size(), starved_rpcs);
}

TEST(ClientBehavior, UploadPrecedesReportByBackoffWindow) {
  Fixture f;
  ClientConfig cfg;
  cfg.backoff_jitter = 0.0;
  f.to_hand_out.push_back(f.map_task(1, std::string(2000, 'x')));
  auto client = f.make_client(cfg);
  client->start();
  f.sim.run(SimTime::minutes(40));

  // Files hit the data server before the report arrived (Fig. 4's point).
  ASSERT_TRUE(f.data->has("wu1_0.part0"));
  bool found = false;
  for (const auto& req : f.requests) {
    if (!req.reports.empty()) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GE(f.backoffs(), 1);
}

TEST(ClientBehavior, ImmediateModeBypassesBackoff) {
  Fixture longrun, immediate;
  for (Fixture* f : {&longrun, &immediate}) {
    f->to_hand_out.push_back(f->map_task(1, std::string(2000, 'y')));
  }
  immediate.report_map_results_immediately = true;  // server-directed E4

  ClientConfig cfg;
  cfg.backoff_jitter = 0.0;
  auto slow_client = longrun.make_client(cfg);
  slow_client->start();
  auto fast_client = immediate.make_client(cfg);
  fast_client->start();

  auto first_report_time = [](Fixture& f) {
    f.sim.run(SimTime::minutes(60));
    // The report rides some RPC; find when the result left the client by
    // reading the request log (requests are recorded in arrival order, so
    // use the count of RPCs before the reporting one as a proxy).
    for (std::size_t i = 0; i < f.requests.size(); ++i) {
      if (!f.requests[i].reports.empty()) return static_cast<int>(i);
    }
    return -1;
  };
  const int slow_idx = first_report_time(longrun);
  const int fast_idx = first_report_time(immediate);
  ASSERT_GE(slow_idx, 0);
  ASSERT_GE(fast_idx, 0);
  // Immediate mode reports promptly; the default batches it behind further
  // (backed-off) work-fetch RPCs. Compare how many empty polls preceded it.
  EXPECT_LE(fast_idx, slow_idx);
  EXPECT_EQ(fast_client->tasks_in_hand(), 0u);  // report acknowledged
}

TEST(ClientBehavior, MultiCoreRunsTasksConcurrently) {
  Fixture f;
  // Two hefty tasks; a 2-core host should finish them in ~the time of one.
  f.to_hand_out.push_back(f.map_task(1, std::string(40000, 'a')));
  f.to_hand_out.push_back(f.map_task(2, std::string(40000, 'b')));

  HostSpec spec;
  spec.flops = 1e5;  // make compute dominate: ~12 s per task
  spec.cores = 2;
  ClientConfig cfg;
  cfg.backoff_jitter = 0.0;
  auto client = f.make_client(cfg, spec);
  client->start();
  const bool done = f.sim.run_until(
      [&] { return f.tasks_completed() == 2; },
      SimTime::minutes(30));
  ASSERT_TRUE(done);
  // Both compute windows overlap: completion instants are within one task
  // duration of each other (they were started back-to-back).
  EXPECT_EQ(f.tasks_completed(), 2);
}

TEST(ClientBehavior, OfflineSuppressesRpcsAndResumes) {
  Fixture f;
  ClientConfig cfg;
  cfg.backoff_jitter = 0.0;
  auto client = f.make_client(cfg);
  client->start();
  f.sim.run(SimTime::seconds(90));
  const auto before = f.requests.size();
  client->set_online(false);
  f.sim.run(SimTime::minutes(30));
  EXPECT_EQ(f.requests.size(), before);  // silence while offline
  client->set_online(true);
  f.sim.run(SimTime::minutes(40));
  EXPECT_GT(f.requests.size(), before);  // polling resumed
}

TEST(ClientBehavior, CheckpointLosesUncommittedProgress) {
  Fixture f;
  f.to_hand_out.push_back(f.map_task(1, std::string(50000, 'z')));
  HostSpec spec;
  spec.flops = 1e4;  // ~150 s of compute
  ClientConfig cfg;
  cfg.backoff_jitter = 0.0;
  cfg.checkpoint_period = SimTime::seconds(40);
  auto client = f.make_client(cfg, spec);
  client->start();
  // Let it compute ~70 s (one checkpoint at 40 s), then bounce it.
  f.sim.run_until([&] { return f.tasks_completed() == 0 &&
                               !client->idle(); },
                  SimTime::minutes(5));
  f.sim.run(f.sim.now() + SimTime::seconds(90));
  client->set_online(false);
  f.sim.run(f.sim.now() + SimTime::seconds(5));
  client->set_online(true);
  const bool done = f.sim.run_until(
      [&] { return f.tasks_completed() == 1; },
      SimTime::hours(2));
  EXPECT_TRUE(done);  // work since the 40 s checkpoint was redone, not lost
}

TEST(ClientBehavior, ConcurrentTransfersRespectLimit) {
  // A reduce task with many server-side inputs: the client may run at most
  // max_file_xfers downloads at once (the libcurl-style cap).
  Fixture f;
  proto::AssignedTask t;
  t.result_id = 1;
  t.result_name = "red_0";
  t.wu_name = "red";
  t.app = "word_count";
  t.phase = proto::TaskPhase::kReduce;
  t.job_id = 1;
  t.mr_index = 0;
  t.n_maps = 10;
  t.n_reducers = 1;
  t.flops_estimate = 1e6;
  t.report_deadline = SimTime::hours(4);
  for (int i = 0; i < 10; ++i) {
    const std::string name = "part" + std::to_string(i);
    f.data->stage(name, mr::FilePayload::of_content(
                            mr::serialize_kvs({{"w", std::to_string(i)}})));
    proto::InputFileSpec in;
    in.name = name;
    in.size = 4;
    in.on_server = true;
    proto::PeerLocation loc;
    loc.map_index = i;
    loc.file_name = name;
    loc.size = in.size;
    in.peers.push_back(loc);  // metadata only; plain client uses the server
    t.inputs.push_back(in);
  }
  f.to_hand_out.push_back(t);

  ClientConfig cfg;
  cfg.max_file_xfers = 3;
  cfg.backoff_jitter = 0.0;
  auto client = f.make_client(cfg);
  client->start();

  // Sample the server's concurrent-download pressure while running.
  int peak_flows = 0;
  std::function<void()> sample = [&] {
    peak_flows = std::max(peak_flows,
                          static_cast<int>(f.net.active_flow_count()));
    if (f.sim.now() < SimTime::minutes(5)) {
      f.sim.after(SimTime::millis(5), sample);
    }
  };
  f.sim.after(SimTime::zero(), sample);
  f.sim.run(SimTime::minutes(30));

  EXPECT_EQ(f.tasks_completed(), 1);
  // At most max_file_xfers download flows (+1 for a possible RPC body).
  EXPECT_LE(peak_flows, 4);
}

TEST(ClientBehavior, TasksQueuedReportedTruthfully) {
  Fixture f;
  // A long-running task so work-fetch polls happen mid-execution.
  f.to_hand_out.push_back(f.map_task(1, std::string(60000, 'q')));
  HostSpec spec;
  spec.flops = 1e4;  // ~3 minutes of compute
  ClientConfig cfg;
  cfg.backoff_jitter = 0.0;
  auto client = f.make_client(cfg, spec);
  client->start();
  f.sim.run(SimTime::minutes(30));
  // Requests while holding the task reported tasks_queued >= 1.
  bool saw_queued = false;
  for (const auto& req : f.requests) {
    if (req.tasks_queued >= 1) saw_queued = true;
  }
  EXPECT_TRUE(saw_queued);
  EXPECT_EQ(f.tasks_completed(), 1);
}

}  // namespace
}  // namespace vcmr::client
