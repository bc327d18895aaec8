#pragma once
// The volunteer client: BOINC's pull-model state machine plus the BOINC-MR
// additions (§III.A/III.C).
//
// All communication is client-initiated. The client keeps a small work
// buffer; when it runs low it issues a scheduler RPC that simultaneously
// reports finished results and requests work. Finished outputs are
// *uploaded* as soon as they exist, but the result is only *reported* on
// the next scheduler RPC — and when the server had no work, that RPC is
// pushed out by exponential backoff. This pair of behaviours produces the
// straggler pathology of Fig. 4.
//
// A BOINC-MR client (mr_capable) additionally serves its validated map
// outputs to reducers over inter-client connections and fetches reduce
// inputs from mapper peers, falling back to the data server after n failed
// attempts.

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/backoff.h"
#include "client/host_info.h"
#include "client/interclient.h"
#include "db/schema.h"
#include "mr/app.h"
#include "mr/dataset.h"
#include "net/http.h"
#include "net/traversal.h"
#include "proto/messages.h"
#include "server/config.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "store/store.h"

namespace vcmr::client {

/// Bucket bounds for the `client/backoff_seconds` histogram. The default
/// backoff cap is 600 s, but the cap is configurable (backoff_max), so the
/// bounds extend to an hour: observations above the last bound land in the
/// overflow bucket, whose quantile() clamps to that bound and silently
/// under-reports the tail (see obs::Histogram). Pinned in test_obs.cpp.
inline std::vector<double> backoff_histogram_bounds() {
  return {30, 60, 120, 240, 480, 600, 1200, 2400, 3600};
}

inline constexpr int kMrPort = 31416;  ///< BOINC-MR inter-client listener

/// Per-client knobs. The project's protocol switches (mirroring, peer input
/// distribution, the recovery gates, the volunteer store) are read from the
/// project's own server::ProjectConfig, and the BOINC-MR build from the
/// host record, so a client cannot disagree with its project.
struct ClientConfig {
  // --- work fetch --------------------------------------------------------
  /// Ask for work when the buffered estimate falls below this.
  double work_buf_min_seconds = 600;
  /// Stagger of the very first scheduler contact.
  SimTime initial_rpc_jitter = SimTime::seconds(20);
  /// Checkpoint cadence: a suspension (churn) loses progress made since the
  /// last checkpoint. Zero = continuous checkpointing.
  SimTime checkpoint_period = SimTime::seconds(60);

  // --- backoff (paper: 600 s cap observed) ---------------------------------
  SimTime backoff_min = SimTime::seconds(60);
  SimTime backoff_max = SimTime::seconds(600);
  double backoff_jitter = 0.3;

  // --- transfers -----------------------------------------------------------
  int max_file_xfers = 4;           ///< libcurl-style concurrent transfers

  // --- reporting -------------------------------------------------------------
  /// Mitigation E4 client side; the server can also switch this on via the
  /// reply flag.
  bool report_results_immediately = false;

  // --- BOINC-MR ---------------------------------------------------------------
  /// Serve/fetch tuning.
  MapOutputServerConfig serve;
  PeerFetchConfig peer_fetch;

  // --- byzantine model ----------------------------------------------------------
  /// Probability that a finished task reports a corrupted digest.
  double error_probability = 0.0;
  /// Credit-claim inflation factor (1.0 = honest; cheaters claim more, the
  /// validator's min-of-quorum grant clips them).
  double credit_claim_inflation = 1.0;
};

/// The two per-client byte counts with no registry twin; every other
/// client fact is a `client/*` (or `interclient/*`) registry counter.
struct ClientStats {
  Bytes bytes_downloaded_server = 0;
  Bytes bytes_read_locally = 0;  ///< reduce inputs already on local disk
};

class Client {
 public:
  Client(sim::Simulation& sim, net::Network& net, net::HttpService& http,
         store::StorageTier& data, net::Endpoint scheduler_ep,
         const server::ProjectConfig& project, const db::HostRecord& host_rec,
         const HostSpec& spec, PeerRegistry& registry,
         net::ConnectionEstablisher* establisher, ClientConfig cfg = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Schedules the first scheduler contact.
  void start();

  /// Availability hook for the churn model; offline pauses execution
  /// (checkpoint-style), fails in-flight transfers, and silences RPCs.
  void set_online(bool online);
  bool online() const { return online_; }

  /// Fault injection: the client process dies. Unlike set_online(false),
  /// nothing survives — in-flight tasks, downloaded inputs, and the map
  /// outputs this host was serving are all lost, so reducers must re-fetch
  /// (or fall back) and the server re-issues the host's results when their
  /// report deadlines pass.
  void crash();
  /// Recovers from crash(): comes back empty-handed and re-contacts the
  /// scheduler as a fresh work fetch.
  void restart();
  bool crashed() const { return crashed_; }

  /// Fault injection: when set, consulted once per finished task; returning
  /// true corrupts the reported digest and staged outputs (exercising the
  /// quorum validator exactly like a byzantine host).
  void set_upload_corruption_hook(std::function<bool()> hook) {
    corrupt_hook_ = std::move(hook);
  }

  HostId host_id() const { return host_id_; }
  NodeId node() const { return node_; }
  const ClientStats& stats() const { return stats_; }
  bool idle() const;
  std::size_t tasks_in_hand() const { return tasks_.size(); }

 private:
  enum class TaskState {
    kDownloading,
    kReady,
    kRunning,
    kUploading,
    kReadyToReport,
    kReporting,
  };

  struct TaskInput {
    proto::InputFileSpec spec;
    bool have = false;
    bool active = false;  ///< a fetch is in flight
    int server_retries_left = 0;
    bool use_server = false;  ///< forced fallback
    /// Next entry of spec.peers to try; with the volunteer store enabled a
    /// failed source redirects here instead of straight to the server.
    int next_peer = 0;
  };

  struct Task {
    proto::AssignedTask assign;
    TaskState state = TaskState::kDownloading;
    std::vector<TaskInput> inputs;
    SimTime received;
    SimTime run_started;
    SimTime run_remaining;  ///< for checkpoint/resume under churn
    sim::EventHandle run_event;
    std::optional<std::size_t> compute_span;  ///< open while computing
    bool report_success = true;
    double flops_actual = 0;  ///< real work done; basis of the credit claim
    common::Digest128 digest;
    Bytes output_bytes = 0;
    std::vector<proto::OutputFileInfo> outputs;
    std::vector<std::pair<std::string, mr::FilePayload>> pending_uploads;
    int uploads_in_flight = 0;
  };

  // --- RPC ----------------------------------------------------------------
  void consider_rpc();
  void do_rpc();
  void on_reply(const proto::SchedulerReply& reply, bool requested_work,
                std::vector<std::int64_t> reported_ids);
  void on_rpc_fail(std::vector<std::int64_t> reported_ids,
                   std::vector<proto::FetchFailureReport> sent_fetch_failures);
  bool want_work() const;
  bool want_report_now() const;
  /// Pipelined reduce: a held task still needs mapper locations, which
  /// only arrive with scheduler replies — so keep polling.
  bool want_locations() const;
  double buffered_seconds() const;

  // --- tasks ----------------------------------------------------------------
  void accept_task(const proto::AssignedTask& assign);
  void apply_location_update(const proto::LocationUpdate& upd);
  void pump_downloads();
  void start_input_fetch(Task& task, TaskInput& input);
  /// The in-flight download of `name` failed for good (or its task died):
  /// waiters re-enter the queue so one of them becomes the new carrier.
  void requeue_input_waiters(const std::string& name);
  void input_done(std::int64_t result_id, const std::string& name,
                  const mr::FilePayload& payload);
  void input_failed(std::int64_t result_id, const std::string& name,
                    const std::string& why, bool was_peer);
  void check_ready(Task& task);
  void maybe_execute();
  void start_execution(Task& task);
  void finish_execution(Task& task);
  void start_uploads(Task& task);
  void pump_uploads(Task& task);
  void upload_output(std::int64_t result_id, const std::string& name,
                     mr::FilePayload payload);
  void mark_ready_to_report(Task& task);
  void fail_task(Task& task, const std::string& why);
  Task* find_task(std::int64_t result_id);

  const mr::MapReduceApp& app_for(const Task& task) const;

  void trace_point(const std::string& label, const std::string& detail);
  std::size_t trace_begin(const std::string& label, const std::string& detail);
  void trace_end(std::size_t token);
  /// Closes `span` if it is open and marks it closed; a span several paths
  /// may close (compute, backoff) is closed exactly once.
  void trace_end(std::optional<std::size_t>& span);

  /// Telemetry for a freshly drawn backoff delay: per-host histogram, and
  /// on a traced run a "backoff" span whose detail is the draw
  /// ("<why> <seconds>"), open until the next RPC or a crash.
  void note_backoff(SimTime delay, const char* why);

  sim::Simulation& sim_;
  net::Network& net_;
  net::HttpService& http_;
  store::StorageTier& data_;
  net::Endpoint scheduler_ep_;
  /// The project's switches; outlives the client (Cluster declares the
  /// Project first).
  const server::ProjectConfig& project_;
  HostId host_id_;
  NodeId node_;
  bool mr_capable_;  ///< BOINC-MR build vs plain 6.13.0 client
  HostSpec spec_;
  ClientConfig cfg_;
  std::string actor_;

  MapOutputServer serve_;
  PeerFetcher fetcher_;
  ExponentialBackoff backoff_;
  common::Rng byz_rng_;

  bool online_ = true;
  bool started_ = false;
  bool crashed_ = false;
  bool rpc_in_flight_ = false;
  /// Bumped by crash(): replies to RPCs issued in an earlier life are stale
  /// and must be ignored even if the network still delivers them.
  std::int64_t rpc_epoch_ = 0;
  std::function<bool()> corrupt_hook_;
  bool server_wants_immediate_reports_ = false;
  SimTime next_allowed_rpc_;
  SimTime backoff_until_;
  sim::EventHandle rpc_event_;
  std::optional<std::size_t> backoff_span_;

  std::map<std::int64_t, Task> tasks_;  ///< by result id; ordered for determinism
  std::deque<std::pair<std::int64_t, std::string>> download_queue_;
  /// Transfer dedup (BOINC's file model: results reference shared files, so
  /// two tasks needing the same input share one transfer): file name → the
  /// result ids waiting on another task's in-flight download of that file.
  /// Satisfied from local disk when the carrier lands; re-queued as normal
  /// downloads if the carrier fails for good.
  std::map<std::string, std::vector<std::int64_t>> input_waiters_;
  int downloads_active_ = 0;
  int running_count_ = 0;  ///< tasks executing now (≤ spec_.cores)
  std::map<std::string, mr::FilePayload> local_files_;
  std::vector<std::string> cached_input_names_;  ///< advertised in RPCs
  /// Exhausted peer fetches awaiting delivery to the scheduler; entries
  /// re-queue if the carrying RPC fails and die with everything else on
  /// crash().
  std::vector<proto::FetchFailureReport> pending_fetch_failures_;

  ClientStats stats_;
};

}  // namespace vcmr::client
