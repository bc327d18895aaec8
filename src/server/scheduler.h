#pragma once
// Scheduler: the server end of the pull-model RPC.
//
// Everything is client-initiated (§III.A): clients POST a scheduler request
// reporting finished results and asking for work; the scheduler records
// reports, picks feedable results for the host (honouring the
// one-result-per-host-per-WU rule that keeps quorums honest), and for
// reduce results "uses JobTracker to identify which clients have finished
// map tasks for this job" and appends their addresses (§III.B, Fig. 3).

#include <array>
#include <functional>
#include <map>
#include <set>

#include "db/database.h"
#include "net/http.h"
#include "proto/messages.h"
#include "reputation/reputation.h"
#include "server/config.h"
#include "server/feeder.h"
#include "server/jobtracker.h"
#include "sim/simulation.h"
#include "store/store.h"

namespace vcmr::server {

class Scheduler {
 public:
  /// `policy` (optional) drives adaptive replication: single-replica work
  /// prefers trusted hosts, and each first assignment decides whether the
  /// work unit stays single or escalates to the full quorum.
  Scheduler(sim::Simulation& sim, db::Database& db, Feeder& feeder,
            JobTracker& jobtracker, const ProjectConfig& cfg,
            net::HttpService& http, net::Endpoint ep,
            rep::AdaptiveReplicationPolicy* policy = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  net::Endpoint endpoint() const { return ep_; }

  /// Server crash-fault: while down the endpoint answers every RPC with 503
  /// (clients back off and retry as for any failed RPC), and the CGI's soft
  /// state — deferral counts, input-cacher map, store directory — is
  /// discarded; it never survives a process restart.
  void crash();
  /// Back up after a restore; soft state rebuilds from future requests.
  void restore() { down_ = false; }
  bool down() const { return down_; }

  /// Handles one request synchronously (testing hook; the HTTP path adds
  /// the RPC service delay around this).
  proto::SchedulerReply process(const proto::SchedulerRequest& req);

 private:
  /// Why a feedable result was passed over for the requesting host. Each
  /// reason has its own skip bound and its own `scheduler/*_skips` counter.
  enum class Deferral {
    kTrust,     ///< single-replica work waiting for a trusted host
    kStore,     ///< map chunk waiting for a trusted volunteer replica
    kLocality,  ///< reduce partition waiting for its best data holder
  };

  void handle_report(HostId host, const proto::ReportedResult& rep);
  /// resend_lost_results: marks in-progress results the client no longer
  /// knows about as kOver/kLost and flags their WUs for transition.
  void reconcile_known_results(HostId host,
                               const std::vector<std::int64_t>& known);
  void handle_fetch_failure(HostId reporter,
                            const proto::FetchFailureReport& ff);
  void assign_work(const proto::SchedulerRequest& req,
                   proto::SchedulerReply& reply);
  proto::AssignedTask build_task(const db::ResultRecord& r,
                                 const db::WorkUnitRecord& wu,
                                 bool mr_capable);
  void note_cached_files(HostId host, const std::vector<std::string>& files);
  /// Volunteer replica store: trusted serve points for `name` (reputation-
  /// gated directory lookup), excluding the requester.
  std::vector<store::ReplicaDirectory::Source> store_sources(
      const std::string& name, HostId except, int max);
  bool host_may_be_needed(HostId host) const;
  /// Adaptive-replication gate for one candidate (result, host) pair.
  /// Returns false to defer the result for a trusted host; may escalate the
  /// WU to the full quorum before the caller assigns.
  bool apply_trust_policy(const db::ResultRecord& r, db::WorkUnitRecord& wu,
                          HostId host);
  /// The one deferral gate: passes `rid` over for `reason` unless it has
  /// already been deferred `max` times for that reason. Returns true (and
  /// counts the skip) when the caller should move on to the next result.
  bool defer(ResultId rid, Deferral reason, int max);

  sim::Simulation& sim_;
  db::Database& db_;
  Feeder& feeder_;
  JobTracker& jobtracker_;
  const ProjectConfig& cfg_;
  net::HttpService& http_;
  net::Endpoint ep_;
  rep::AdaptiveReplicationPolicy* policy_;
  bool down_ = false;
  /// Deferrals so far per awaiting result, indexed by Deferral. Erased once
  /// the result is assigned or its WU completes, so the map stays bounded
  /// across a long run.
  std::map<ResultId, std::array<int, 3>> deferrals_;
  /// Peer-assisted input distribution: file name -> hosts serving it.
  std::map<std::string, std::vector<HostId>> input_cachers_;
  /// Volunteer replica store: Bloom adverts by host (soft state, like the
  /// maps above — dies with the CGI on crash()).
  store::ReplicaDirectory store_directory_;
  /// Locality-aware chunk dispatch: per input file, the distinct hosts that
  /// were sent it with no volunteer serve point attached (server-sourced).
  /// Distinct hosts, not raw sends: one host taking several work units of
  /// the same shared chunk downloads it once, so only new hosts widen the
  /// project tier's exposure.
  std::map<std::string, std::set<HostId>> server_sends_;
};

}  // namespace vcmr::server
