#include "core/cluster.h"

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace vcmr::core {

namespace {
common::Logger log_("cluster");
}

Cluster::Cluster(Scenario scenario) : scenario_(std::move(scenario)) {
  require(scenario_.n_nodes >= 1, "Scenario: need at least one node");
  require(scenario_.n_maps >= 1 && scenario_.n_reducers >= 1,
          "Scenario: need at least one map and one reducer");
  require(scenario_.data_servers.n_shards >= 1,
          "Scenario: need at least one data server shard");

  sim_ = std::make_unique<sim::Simulation>(scenario_.seed);
  if (scenario_.record_trace) sim_->set_trace(&trace_);
  net_ = std::make_unique<net::Network>(*sim_);
  http_ = std::make_unique<net::HttpService>(*net_);

  // Server node and project.
  net::NodeConfig server_cfg;
  server_cfg.up_bps = scenario_.server_up_bps;
  server_cfg.down_bps = scenario_.server_down_bps;
  server_cfg.latency = scenario_.server_latency;
  server_cfg.name = "server";
  server_node_ = net_->add_node(server_cfg);
  project_ =
      std::make_unique<server::Project>(*sim_, *http_, server_node_,
                                        scenario_.project);

  // Volunteer hosts.
  std::vector<client::HostSpec> specs = scenario_.hosts;
  if (specs.empty()) {
    if (scenario_.host_preset == "internet") {
      common::Rng rng = sim_->rng_stream("scenario.hosts");
      specs = volunteer::internet_mix(scenario_.n_nodes, rng);
    } else {
      require(scenario_.host_preset.empty() ||
                  scenario_.host_preset == "emulab",
              "Scenario: unknown host preset");
      specs = volunteer::emulab_mix(scenario_.n_nodes);
    }
  }
  require(static_cast<int>(specs.size()) >= scenario_.n_nodes,
          "Scenario: fewer host specs than nodes");

  // Derive per-host arrays from mixes when not given explicitly.
  if (scenario_.use_traversal && scenario_.nat_profiles.empty() &&
      scenario_.nat_mix) {
    common::Rng rng = sim_->rng_stream("scenario.nat");
    scenario_.nat_profiles =
        volunteer::nat_profiles(scenario_.n_nodes, *scenario_.nat_mix, rng);
  }
  if (scenario_.error_probabilities.empty() && scenario_.byzantine) {
    common::Rng rng = sim_->rng_stream("scenario.byzantine");
    scenario_.error_probabilities = volunteer::error_probabilities(
        scenario_.n_nodes, *scenario_.byzantine, rng);
  }

  // NAT traversal machinery (optional).
  if (scenario_.use_traversal) {
    establisher_ = std::make_unique<net::ConnectionEstablisher>(
        *net_, server_node_, scenario_.traversal);
    if (scenario_.use_overlay) {
      overlay_ = std::make_unique<net::SupernodeOverlay>(*net_);
      establisher_->set_relay_provider(
          [this](NodeId a, NodeId b) { return overlay_->pick_relay(a, b); });
    }
  }

  if (scenario_.churn) {
    churn_ = std::make_unique<volunteer::AvailabilityModel>(*sim_,
                                                            *scenario_.churn);
  }

  for (int i = 0; i < scenario_.n_nodes; ++i) {
    const client::HostSpec& spec = specs[static_cast<std::size_t>(i)];
    net::NodeConfig ncfg;
    ncfg.up_bps = spec.up_bps;
    ncfg.down_bps = spec.down_bps;
    ncfg.latency = spec.latency;
    ncfg.name = "host" + std::to_string(i + 1);
    const NodeId node = net_->add_node(ncfg);

    client::ClientConfig ccfg = scenario_.client;
    if (i < static_cast<int>(scenario_.error_probabilities.size())) {
      ccfg.error_probability =
          scenario_.error_probabilities[static_cast<std::size_t>(i)];
    }

    db::HostRecord hproto;
    hproto.name = ncfg.name;
    hproto.node = node;
    hproto.flops = spec.flops;
    hproto.cores = spec.cores;
    hproto.mr_capable = scenario_.boinc_mr && i >= scenario_.n_plain_clients;
    hproto.mr_endpoint = net::Endpoint{node, client::kMrPort};
    hproto.error_rate = scenario_.project.reputation.error_rate_prior;
    const db::HostRecord& hrec = project_->database().create_host(hproto);

    if (establisher_ &&
        i < static_cast<int>(scenario_.nat_profiles.size())) {
      const net::NatProfile& prof =
          scenario_.nat_profiles[static_cast<std::size_t>(i)];
      establisher_->set_profile(node, prof);
      if (overlay_) overlay_->join(node, prof);
    }

    clients_.push_back(std::make_unique<client::Client>(
        *sim_, *net_, *http_, project_->storage(),
        project_->scheduler_endpoint(), project_->config(), hrec, spec,
        registry_, establisher_.get(), ccfg));
  }

  // Extra storage shards: project infrastructure on the server's link
  // profile. Appended after the volunteer nodes so that single-shard
  // scenarios stay bit-identical to the historical single-server runs.
  for (int s = 1; s < scenario_.data_servers.n_shards; ++s) {
    net::NodeConfig scfg;
    scfg.up_bps = scenario_.server_up_bps;
    scfg.down_bps = scenario_.server_down_bps;
    scfg.latency = scenario_.server_latency;
    scfg.name = "shard" + std::to_string(s);
    shard_nodes_.push_back(net_->add_node(scfg));
    project_->storage().add_shard(shard_nodes_.back());
  }

  if (scenario_.flow_failure_rate > 0) {
    net_->set_flow_failure_rate(scenario_.flow_failure_rate);
    // Server paths model the project's managed infrastructure; only the
    // volunteer-to-volunteer edges are flaky.
    net_->set_failure_exempt_node(server_node_);
  }

  if (!scenario_.faults.empty()) {
    fault::FaultPlan plan = scenario_.faults;
    if (!plan.trace_file.empty()) {
      // Replayed availability: compile the trace into timed link faults so
      // the Injector treats them like any other schedule (tagged, so stats
      // keep trace churn apart from hand-written faults).
      auto traced = fault::load_availability_trace_file(plan.trace_file,
                                                        scenario_.n_nodes);
      plan.link_faults.insert(plan.link_faults.end(), traced.begin(),
                              traced.end());
      plan.trace_file.clear();
    }
    if (!plan.server_crashes.empty()) project_->enable_snapshots();

    fault::Hooks hooks;
    hooks.set_link = [this](int host, bool up) {
      net_->set_online(clients_[static_cast<std::size_t>(host)]->node(), up);
    };
    hooks.set_partition = [this](const std::vector<int>& hosts, int cls) {
      for (const int h : hosts) {
        net_->set_partition_class(
            clients_[static_cast<std::size_t>(h)]->node(), cls);
      }
    };
    hooks.set_data_server = [this](int shard, bool up) {
      project_->storage().set_available(shard, up);
    };
    hooks.crash_client = [this](int host) {
      clients_[static_cast<std::size_t>(host)]->crash();
    };
    hooks.restart_client = [this](int host) {
      clients_[static_cast<std::size_t>(host)]->restart();
    };
    hooks.set_link_degrade = [this](int host, double factor) {
      net_->set_link_scale(clients_[static_cast<std::size_t>(host)]->node(),
                           factor);
    };
    hooks.crash_server = [this] { project_->crash_server(); };
    hooks.restore_server = [this] { project_->restore_server(); };
    injector_ = std::make_unique<fault::Injector>(
        *sim_, std::move(plan), std::move(hooks), scenario_.n_nodes);
    if (injector_->wants_message_loss()) {
      net_->set_message_drop_hook(
          [this] { return injector_->drop_message_draw(); });
    }
    if (injector_->wants_upload_corruption()) {
      for (auto& c : clients_) {
        c->set_upload_corruption_hook(
            [this] { return injector_->corrupt_upload_draw(); });
      }
    }
    injector_->arm();
  }
}

Cluster::~Cluster() = default;

RunOutcome Cluster::run_job() {
  server::MrJobSpec spec;
  spec.name = "job" + std::to_string(project_->database().workunit_count());
  spec.app = scenario_.app;
  spec.n_maps = scenario_.n_maps;
  spec.n_reducers = scenario_.n_reducers;
  if (scenario_.input_text) {
    spec.input_text = scenario_.input_text;
  } else {
    spec.input_size = scenario_.input_size;
  }
  return run_job(spec);
}

RunOutcome Cluster::run_job(const server::MrJobSpec& spec) {
  return run_jobs({spec}).front();
}

void Cluster::start_fleet() {
  if (started_) return;
  started_ = true;
  project_->start();
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->start();
    if (churn_) churn_->attach(*clients_[i], i);
  }
}

void Cluster::require_current(const char* what) const {
  if (metrics_.current()) return;
  throw Error(std::string(what) +
              ": another metrics registry is current on this thread (a "
              "newer Cluster or ScopedMetricsRegistry is live)");
}

std::vector<RunOutcome> Cluster::run_jobs(
    const std::vector<server::MrJobSpec>& specs) {
  require(!specs.empty(), "run_jobs: no jobs given");
  require_current("run_jobs");
  std::vector<MrJobId> jobs;
  jobs.reserve(specs.size());
  for (const auto& spec : specs) jobs.push_back(project_->submit_job(spec));

  start_fleet();

  auto& jt = project_->jobtracker();
  auto all_settled = [&] {
    for (const MrJobId job : jobs) {
      if (!jt.job_done(job) && !jt.job_failed(job)) return false;
    }
    return true;
  };
  const bool finished =
      sim_->run_until(all_settled, sim_->now() + scenario_.time_limit);

  std::vector<RunOutcome> outcomes;
  for (const MrJobId job : jobs) {
    outcomes.push_back(job_outcome(job, finished));
  }
  return outcomes;
}

RunOutcome Cluster::job_outcome(MrJobId job, bool finished) {
  RunOutcome out;
  out.job = job;
  out.hit_time_limit = !finished;
  out.metrics = compute_job_metrics(project_->database(), job);

  const net::NodeTraffic& st = net_->traffic(server_node_);
  out.server_bytes_sent = st.bytes_sent;
  out.server_bytes_received = st.bytes_received;
  obs::MetricsRegistry& reg = metrics();
  out.scheduler_rpcs = reg.counter_value("scheduler", "rpcs");
  out.results_lost = reg.counter_value("scheduler", "results_lost");
  out.fetch_failures_reported =
      reg.counter_value("scheduler", "fetch_failures_reported");
  out.maps_invalidated = reg.counter_value("scheduler", "maps_invalidated");
  out.backoffs = reg.histogram_count("client", "backoff_seconds");
  out.server_fallbacks = reg.counter_value("client", "server_fallbacks");
  out.peer_fetch_attempts = reg.counter_value("interclient", "fetch_attempts");
  out.interclient_bytes = reg.counter_value("interclient", "bytes_fetched");
  out.store_bytes =
      reg.counter_value("store", "tier_egress_bytes", {{"tier", "volunteer"}});
  out.store_fetches = reg.counter_value("client", "store_fetches");
  out.store_misses = reg.counter_value("client", "store_misses");
  for (const auto& c : clients_) {
    out.local_read_bytes += c->stats().bytes_read_locally;
  }

  log_.info("job ", job.value(), out.metrics.completed ? " completed" :
            (out.metrics.failed ? " FAILED" : " timed out"),
            " at t=", sim_->now().str());

  // Job-level roll-up: gauges keyed by job id so multi-job runs keep each
  // job's summary distinct in the metrics export.
  const obs::Labels job_label = {{"job", std::to_string(job.value())}};
  reg.gauge("job", "total_seconds", job_label)
      .set(out.metrics.total_seconds);
  reg.gauge("job", "completed", job_label)
      .set(out.metrics.completed ? 1 : 0);
  reg.gauge("job", "server_bytes_sent", job_label)
      .set(static_cast<double>(out.server_bytes_sent));
  reg.gauge("job", "server_bytes_received", job_label)
      .set(static_cast<double>(out.server_bytes_received));
  reg.gauge("job", "backoffs", job_label)
      .set(static_cast<double>(out.backoffs));
  if (scenario_.record_trace) {
    trace_.point(sim_->now(), "cluster", "cluster",
                 out.metrics.completed
                     ? "job_completed"
                     : (out.metrics.failed ? "job_failed" : "job_timeout"),
                 "job" + std::to_string(job.value()));
  }

  return out;
}

WorkflowRunResult Cluster::run_workflow() {
  require(!scenario_.workflow.empty(),
          "run_workflow: scenario has no workflow nodes");
  return run_workflow(wf::WorkflowGraph(scenario_.workflow));
}

WorkflowRunResult Cluster::run_workflow(const wf::WorkflowGraph& graph) {
  require_current("run_workflow");
  wf::WorkflowCoordinator coordinator(*sim_, *project_, graph);
  const double t0 = sim_->now().as_seconds();
  // Same order as run_jobs: submission first (it schedules no events of its
  // own), then the fleet — so a single-node workflow replays a plain
  // run_job event-for-event.
  coordinator.start();
  start_fleet();

  const bool finished = sim_->run_until(
      [&coordinator] { return coordinator.settled(); },
      sim_->now() + scenario_.time_limit);

  WorkflowRunResult res;
  res.hit_time_limit = !finished;
  res.completed = finished && coordinator.succeeded();
  res.total_seconds = sim_->now().as_seconds() - t0;
  res.nodes = coordinator.outcomes();
  res.final_output = coordinator.final_output();

  log_.info("workflow ", res.completed ? "completed" :
            (res.hit_time_limit ? "timed out" : "FAILED"),
            " (", graph.nodes().size(), " nodes, depth ", graph.depth(),
            ") at t=", sim_->now().str());
  if (scenario_.record_trace) {
    trace_.point(sim_->now(), "wf", "workflow",
                 res.completed ? "workflow_completed"
                               : (res.hit_time_limit ? "workflow_timeout"
                                                     : "workflow_failed"));
  }
  return res;
}

std::vector<mr::KeyValue> Cluster::collect_output(MrJobId job) const {
  std::vector<mr::KeyValue> out;
  for (const std::string& name :
       project_->jobtracker().output_file_names(job)) {
    const mr::FilePayload* p = project_->storage().payload(name);
    require(p != nullptr, "collect_output: reduce output not on data server");
    if (!p->materialised()) continue;
    auto kvs = mr::parse_kvs(*p->content);
    out.insert(out.end(), std::make_move_iterator(kvs.begin()),
               std::make_move_iterator(kvs.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vcmr::core
