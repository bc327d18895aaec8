#pragma once
// Deterministic fault injection (vcmr::fault).
//
// The BOINC machinery this repo reproduces — exponential backoff, report
// deadlines, the transitioner's re-issue path, quorum validation — exists
// because volunteer clouds treat churn, broken links, and bad uploads as
// the normal case. This engine exercises exactly those paths: a FaultPlan
// (parsed from the scenario's <faults> block or built programmatically)
// describes timed and probabilistic faults, and the Injector schedules them
// on the discrete-event clock through a Hooks table the Cluster wires to
// the network, data server, and clients.
//
// Determinism: every probabilistic fault draws from its own dedicated RNG
// stream ("fault.corrupt", "fault.rpcloss", "fault.linkflap"/host), so an
// empty plan makes zero draws and a no-faults scenario is bit-identical to
// a build without the engine; the same seed always yields the same fault
// schedule and the same recovery trace.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace vcmr::fault {

/// A volunteer host's access link goes down (transfers and RPCs touching it
/// fail; the client itself keeps computing) and optionally comes back.
struct LinkFault {
  int host = -1;  ///< volunteer index in [0, n_hosts)
  SimTime down_at;
  SimTime up_at = SimTime::infinity();  ///< infinity = never restored
  /// Compiled from an availability trace rather than hand-written; counted
  /// separately so sweeps can tell replayed churn from injected faults.
  bool from_trace = false;
};

/// Named host set for correlated faults: the hosts share infrastructure (a
/// campus uplink, a cable segment, a power feed), so one fault event takes
/// every member down together.
struct HostGroup {
  std::string name;
  std::vector<int> hosts;
};

/// Correlated failure: every member of `group` loses its access link at
/// `down_at` and (optionally) regains it at `up_at` — the volunteer-cloud
/// burst pattern a set of independent LinkFaults cannot reproduce.
struct GroupFault {
  std::string group;
  SimTime down_at;
  SimTime up_at = SimTime::infinity();
};

/// Bandwidth degradation: the host's access link keeps working but both
/// directions are scaled to `factor` of nominal for the window — a slow
/// link, not a dead one. Flows re-enter the max-min fair-share allocation
/// at the reduced rate instead of failing.
struct LinkDegrade {
  int host = -1;
  double factor = 0.5;  ///< in (0, 1]; 1.0 restores nominal capacity
  SimTime at;
  SimTime until = SimTime::infinity();  ///< infinity = degraded forever
};

/// Server crash-fault: at `at` the scheduler and daemons lose all volatile
/// state (feeder cache, JobTracker runtime, anything reported since the
/// last DB snapshot); scheduler RPCs fail with 503 until `restore_at`, when
/// the project reloads the latest snapshot and resumes. In-flight results
/// reported in the lost window reconcile via resend_lost_results.
struct ServerCrash {
  SimTime at;
  SimTime restore_at = SimTime::infinity();
};

/// The listed hosts are split from everyone else (server included): flows
/// and messages crossing the cut fail until the partition heals.
struct Partition {
  std::vector<int> hosts;
  SimTime at;
  SimTime heal_at = SimTime::infinity();
};

/// The project data server rejects downloads/uploads with 503 while down;
/// scheduler RPCs are unaffected (the daemons run on, as when a BOINC
/// project's file server dies but its CGIs stay up).
struct ServerOutage {
  SimTime down_at;
  SimTime up_at = SimTime::infinity();
  /// Which storage-tier shard goes dark; -1 (the default) downs every
  /// shard — the historical single-data-server outage.
  int shard = -1;
};

/// The client process dies: in-flight task state, downloaded inputs, and
/// served map outputs are all lost (no checkpoint survives, unlike churn's
/// suspend/resume). On restart it re-contacts the scheduler from scratch;
/// its lost results recover via the transitioner's deadline re-issue, and
/// reducers that depended on its map outputs re-fetch or fall back.
struct ClientCrash {
  int host = -1;
  SimTime at;
  SimTime restart_at = SimTime::infinity();
};

/// Probabilistic link flapping: every host's access link alternates
/// exponentially distributed up/down periods (stream "fault.linkflap"/host).
struct LinkFlap {
  SimTime mean_up = SimTime::minutes(30);
  SimTime mean_down = SimTime::minutes(1);
};

struct FaultPlan {
  std::vector<LinkFault> link_faults;
  std::vector<Partition> partitions;
  std::vector<ServerOutage> server_outages;
  std::vector<ClientCrash> crashes;
  std::vector<HostGroup> groups;
  std::vector<GroupFault> group_faults;
  std::vector<LinkDegrade> degrades;
  std::vector<ServerCrash> server_crashes;
  /// Availability-trace CSV ("host_id,on_at_s,off_at_s" rows); compiled
  /// into trace-tagged link faults before the Injector is built.
  std::string trace_file;
  std::optional<LinkFlap> link_flap;
  /// Probability that a finished task's upload/report is corrupted (digest
  /// flipped; the quorum validator is what must catch it).
  double upload_corruption_rate = 0.0;
  /// Probability that a control message (scheduler RPC, HTTP header
  /// exchange) is lost in transit; the sender sees a failure and retries
  /// under its usual backoff.
  double rpc_loss_rate = 0.0;

  bool empty() const {
    return link_faults.empty() && partitions.empty() &&
           server_outages.empty() && crashes.empty() && groups.empty() &&
           group_faults.empty() && degrades.empty() &&
           server_crashes.empty() && trace_file.empty() && !link_flap &&
           upload_corruption_rate <= 0.0 && rpc_loss_rate <= 0.0;
  }
};

/// Compiles availability-trace CSV text into link faults (from_trace=true).
/// Each row `host_id,on_at_s,off_at_s` declares one availability window;
/// a host is *down* outside its windows (before the first, between windows,
/// and after the last — a host with no rows is always up). Per-host windows
/// must be sorted and non-overlapping; violations, malformed fields,
/// out-of-range hosts, and times that are not finite or exceed
/// SimTime::kMaxInputSeconds raise vcmr::Error naming the offending line.
/// Lines that are blank or start with '#' are skipped.
std::vector<LinkFault> compile_availability_trace(const std::string& csv,
                                                  int n_hosts);

/// Reads `path` and compiles it; throws vcmr::Error if unreadable.
std::vector<LinkFault> load_availability_trace_file(const std::string& path,
                                                    int n_hosts);

/// Faults injected and recovered, summed from the Injector's
/// `fault/injections{kind}` counters in `reg`. One count per fault *event*:
/// a group fault counts once however many member links it takes down, and
/// replayed trace churn (trace_down/trace_up) stays apart from hand-written
/// link faults. Injections are link_down, partition, server_down, crash,
/// corrupt_upload, rpc_drop, group_down, link_degrade, trace_down and
/// server_crash; recoveries are link_up, partition_heal, server_up,
/// restart, group_up, link_restore_rate, trace_up and server_restore.
std::int64_t injected(const obs::MetricsRegistry& reg);
std::int64_t recovered(const obs::MetricsRegistry& reg);
/// The `fault/injections{kind}` count of one kind in `reg` (0 if absent).
std::int64_t injections(const obs::MetricsRegistry& reg,
                        const std::string& kind);

/// How the Injector acts on the deployment. The engine deliberately knows
/// nothing about vcmr::net/server/client types — the Cluster supplies
/// closures, which keeps the dependency graph acyclic and lets tests inject
/// into bare mocks.
struct Hooks {
  /// Take host `i`'s access link down / bring it back.
  std::function<void(int host, bool up)> set_link;
  /// Place the hosts into partition class `cls` (0 = rejoin the main net).
  std::function<void(const std::vector<int>& hosts, int cls)> set_partition;
  /// Data-server availability; `shard` -1 = the whole tier, else one shard.
  std::function<void(int shard, bool up)> set_data_server;
  std::function<void(int host)> crash_client;
  std::function<void(int host)> restart_client;
  /// Scale host `i`'s access-link capacity (both directions); 1.0 restores
  /// nominal. Active flows re-enter the max-min allocation at the new rate.
  std::function<void(int host, double factor)> set_link_degrade;
  /// Scheduler/daemon state loss and snapshot restore (server crash-fault).
  std::function<void()> crash_server;
  std::function<void()> restore_server;
};

class Injector {
 public:
  /// Validates the plan against `n_hosts` (throws vcmr::Error on bad host
  /// indices or non-monotonic times).
  Injector(sim::Simulation& sim, FaultPlan plan, Hooks hooks, int n_hosts);

  /// Schedules every timed fault and starts link flapping. Call once.
  void arm();

  const FaultPlan& plan() const { return plan_; }

  bool wants_upload_corruption() const {
    return plan_.upload_corruption_rate > 0.0;
  }
  bool wants_message_loss() const { return plan_.rpc_loss_rate > 0.0; }

  /// Per-finished-task draw (wired into each client when the rate is > 0);
  /// true = corrupt this task's outputs. Draws from "fault.corrupt" only —
  /// never from streams existing components own.
  bool corrupt_upload_draw();
  /// Per-control-message draw (wired into the network when the rate is
  /// > 0); true = drop the message. Draws from "fault.rpcloss".
  bool drop_message_draw();

 private:
  void record(const std::string& label, const std::string& detail);
  void schedule_flap_down(int host);
  void schedule_flap_up(int host);

  sim::Simulation& sim_;
  FaultPlan plan_;
  Hooks hooks_;
  int n_hosts_;
  common::Rng corrupt_rng_;
  common::Rng drop_rng_;
  std::vector<common::Rng> flap_rngs_;
  bool armed_ = false;
};

}  // namespace vcmr::fault
