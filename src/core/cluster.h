#pragma once
// Cluster: one fully wired BOINC-MR deployment in a box.
//
// Builds the network (server + volunteer nodes), the project server with
// its daemons, and one client per volunteer host — plain BOINC 6.13.0
// behaviour or the BOINC-MR build, per the scenario — plus the optional
// extras: NAT profiles with tiered traversal, a supernode overlay, churn,
// byzantine hosts, and transfer-failure injection. This is the façade the
// examples and every benchmark drive.
//
// Each Cluster owns the metrics registry its simulation counts into: an
// obs::ScopedMetricsRegistry built before every component and freed after
// them, current on the building thread for the cluster's whole life and
// never folded into the enclosing registry. RunOutcome, the exporters and
// the benches all read it (metrics()). Clusters on one thread therefore
// nest LIFO like any registry scope: destroy them in reverse order of
// construction, and only the newest may run.

#include <memory>
#include <optional>
#include <vector>

#include "client/client.h"
#include "core/metrics.h"
#include "fault/fault.h"
#include "mr/keyvalue.h"
#include "net/overlay.h"
#include "net/traversal.h"
#include "obs/metrics.h"
#include "server/project.h"
#include "sim/trace.h"
#include "volunteer/availability.h"
#include "volunteer/byzantine.h"
#include "volunteer/population.h"
#include "workflow/coordinator.h"

namespace vcmr::core {

struct Scenario {
  std::uint64_t seed = 1;

  // --- workload (Table I parameters) ------------------------------------
  int n_nodes = 20;
  int n_maps = 20;
  int n_reducers = 5;
  Bytes input_size = 1000LL * 1000 * 1000;  ///< the paper's fixed 1 GB
  std::optional<std::string> input_text;    ///< materialised mode
  std::string app = "word_count";

  /// false = plain BOINC clients (Table I upper rows); true = BOINC-MR.
  bool boinc_mr = false;
  /// Mixed fleets (§III.B retro-compatibility): when boinc_mr is true, the
  /// first n_plain_clients hosts still run the ordinary 6.13.0 client —
  /// they execute map work and, if outputs are mirrored, reduce work, but
  /// never serve or fetch inter-client data.
  int n_plain_clients = 0;

  // --- component configuration --------------------------------------------
  server::ProjectConfig project;
  client::ClientConfig client;  ///< every client's own knobs
  std::vector<client::HostSpec> hosts;  ///< empty → derived from host_preset
  /// Used when `hosts` is empty: "emulab" (default) or "internet"
  /// (heterogeneous broadband volunteers drawn from the scenario seed).
  std::string host_preset = "emulab";

  // --- server access link ----------------------------------------------------
  double server_up_bps = 100e6 / 8;
  double server_down_bps = 100e6 / 8;
  SimTime server_latency = SimTime::millis(1);

  // --- storage tier (vcmr::store) -----------------------------------------------
  /// Sharded project data servers. n_shards == 1 (default) is the historical
  /// single server on the server node; extra shards get their own nodes with
  /// the server link profile, appended *after* the volunteer nodes so
  /// single-shard scenarios keep every node id unchanged.
  store::StorageTierConfig data_servers;

  // --- optional machinery -------------------------------------------------------
  bool use_traversal = false;           ///< NAT tier ladder (§III.D)
  net::TraversalPolicy traversal;
  std::vector<net::NatProfile> nat_profiles;  ///< per host; empty → open
  /// Used when `nat_profiles` is empty and traversal is on: draw profiles
  /// from this mix with the scenario seed.
  std::optional<volunteer::NatMix> nat_mix;
  bool use_overlay = false;             ///< supernode relays (§III.D)
  std::optional<volunteer::ChurnConfig> churn;
  std::vector<double> error_probabilities;    ///< per-host byzantine rates
  /// Used when `error_probabilities` is empty: draw per-host rates from
  /// this mix with the scenario seed.
  std::optional<volunteer::ByzantineMix> byzantine;
  double flow_failure_rate = 0.0;       ///< injected inter-client failures
  /// Deterministic fault schedule (vcmr::fault); empty = no engine wired,
  /// bit-identical to pre-fault behaviour.
  fault::FaultPlan faults;
  /// Workflow nodes (vcmr::wf). Non-empty → the scenario describes a DAG /
  /// iterative workload driven by Cluster::run_workflow() instead of the
  /// single flat job above; validated (cycles, unknown apps/deps) at parse
  /// time by scenario_from_xml and again when the graph is built.
  std::vector<wf::NodeSpec> workflow;
  bool record_trace = false;            ///< per-host timeline (Fig. 4)

  SimTime time_limit = SimTime::hours(12);
};

/// One job's metrics plus whole-run counters. The counters are read from
/// the cluster's registry, except the server traffic (the server node's
/// link) and local_read_bytes (the clients' ClientStats).
struct RunOutcome {
  MrJobId job;
  JobMetrics metrics;
  bool hit_time_limit = false;

  Bytes server_bytes_sent = 0;      ///< data-server egress
  Bytes server_bytes_received = 0;  ///< ingress (uploads + RPCs)
  Bytes interclient_bytes = 0;      ///< mapper→reducer volume
  Bytes local_read_bytes = 0;       ///< reduce inputs read from local disk
  std::int64_t scheduler_rpcs = 0;
  std::int64_t backoffs = 0;
  std::int64_t server_fallbacks = 0;
  std::int64_t peer_fetch_attempts = 0;
  // Volunteer replica store (vcmr::store).
  Bytes store_bytes = 0;            ///< chunk bytes served by volunteers
  std::int64_t store_fetches = 0;   ///< chunk fetches served by volunteers
  std::int64_t store_misses = 0;    ///< Bloom false positives / lost chunks
  // Fast lost-work recovery (resend_lost_results / report_fetch_failures).
  std::int64_t results_lost = 0;      ///< reconciled away after client crashes
  std::int64_t fetch_failures_reported = 0;
  std::int64_t maps_invalidated = 0;  ///< map WUs re-run after holder loss
};

/// Result of one workflow run (Cluster::run_workflow).
struct WorkflowRunResult {
  bool completed = false;      ///< every node done (and converged/expired)
  bool hit_time_limit = false;
  double total_seconds = 0;    ///< first submission → workflow settled
  std::vector<wf::NodeOutcome> nodes;  ///< graph order
  /// Merged, key-sorted output of the sink nodes (materialised mode).
  std::vector<mr::KeyValue> final_output;
};

class Cluster {
 public:
  explicit Cluster(Scenario scenario);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Submits the scenario's job and runs to completion, failure, or the
  /// time limit. Like run_jobs and run_workflow, throws vcmr::Error when
  /// another registry is current (a newer cluster or scope is live).
  RunOutcome run_job();
  /// Same, with an explicit job spec (multiple jobs per cluster are fine).
  RunOutcome run_job(const server::MrJobSpec& spec);
  /// Submits all jobs at once and runs until each finishes or fails — the
  /// §IV.C mitigation of "having work constantly available at the
  /// scheduler". Per-job metrics are per job; traffic/RPC counters in each
  /// outcome cover the whole run.
  std::vector<RunOutcome> run_jobs(const std::vector<server::MrJobSpec>& specs);
  /// Runs the scenario's <workflow> block (requires a non-empty one).
  WorkflowRunResult run_workflow();
  /// Runs an explicit graph: submits the roots, then lets the coordinator
  /// chase the JobTracker's finished events until the DAG settles (every
  /// node done, failed, or skipped) or the time limit strikes.
  WorkflowRunResult run_workflow(const wf::WorkflowGraph& graph);
  /// Per-job outcome snapshot (metrics + whole-run traffic counters), the
  /// roll-up run_jobs/run_workflow record for each finished job.
  RunOutcome job_outcome(MrJobId job, bool finished);

  // --- access -------------------------------------------------------------
  /// This cluster's metrics registry (every count its simulation made).
  obs::MetricsRegistry& metrics() { return metrics_.registry(); }
  const obs::MetricsRegistry& metrics() const { return metrics_.registry(); }
  sim::Simulation& simulation() { return *sim_; }
  net::Network& network() { return *net_; }
  server::Project& project() { return *project_; }
  const server::Project& project() const { return *project_; }
  client::Client& client(std::size_t i) { return *clients_.at(i); }
  std::size_t n_clients() const { return clients_.size(); }
  sim::TraceRecorder& trace() { return trace_; }
  NodeId server_node() const { return server_node_; }
  /// Nodes of the extra storage shards (empty with a single-shard tier).
  const std::vector<NodeId>& shard_nodes() const { return shard_nodes_; }
  const Scenario& scenario() const { return scenario_; }
  net::ConnectionEstablisher* establisher() { return establisher_.get(); }
  net::SupernodeOverlay* overlay() { return overlay_.get(); }
  /// Null when the scenario has no faults.
  fault::Injector* injector() { return injector_.get(); }

  /// Merged, key-sorted final output of a completed materialised-mode job
  /// (parses the canonical reduce outputs staged on the data server).
  std::vector<mr::KeyValue> collect_output(MrJobId job) const;

 private:
  /// Starts the project daemons, clients, and churn once per cluster.
  void start_fleet();
  /// Throws unless this cluster's registry is the current one.
  void require_current(const char* what) const;

  /// First member: current while every other member is built and torn down.
  obs::ScopedMetricsRegistry metrics_;
  Scenario scenario_;
  /// The run's one timeline: attached to the simulation when the scenario
  /// records a trace, and declared before the simulation so it outlives
  /// every component that records into it.
  sim::TraceRecorder trace_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::HttpService> http_;
  NodeId server_node_;
  std::vector<NodeId> shard_nodes_;  ///< extra storage shards (index 1..N-1)
  std::unique_ptr<server::Project> project_;
  std::unique_ptr<net::ConnectionEstablisher> establisher_;
  std::unique_ptr<net::SupernodeOverlay> overlay_;
  client::PeerRegistry registry_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::unique_ptr<volunteer::AvailabilityModel> churn_;
  std::unique_ptr<fault::Injector> injector_;
  bool started_ = false;
};

}  // namespace vcmr::core
