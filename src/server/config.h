#pragma once
// Project-wide server configuration, including the BOINC-MR additions the
// paper configures through `mr_jobtracker.xml` (§III.B: "We created a
// general configuration file to the project's directory, mr_jobtracker.xml,
// which is used to specify MapReduce parameters").

#include <string>

#include "common/types.h"
#include "reputation/reputation.h"
#include "store/store.h"

namespace vcmr::common {
class XmlNode;
}

namespace vcmr::server {

struct ProjectConfig {
  // --- replication / validation (paper: 2 results per WU, quorum 2) -------
  int target_nresults = 2;
  int min_quorum = 2;
  int max_error_results = 6;
  int max_total_results = 12;
  /// Per-result report deadline.
  SimTime delay_bound = SimTime::hours(4);
  /// Host reputation & adaptive replication (vcmr::rep). In `adaptive`
  /// mode, target_nresults/min_quorum above become the *escalated* quorum
  /// that untrusted assignees, spot-checks, and disagreements fall back to;
  /// `fixed` (the default) reproduces the paper's behaviour exactly.
  rep::ReputationConfig reputation;

  // --- daemon cadences -----------------------------------------------------
  SimTime feeder_period = SimTime::seconds(5);
  SimTime transitioner_period = SimTime::seconds(10);
  SimTime validator_period = SimTime::seconds(10);
  SimTime assimilator_period = SimTime::seconds(10);
  int feeder_cache_size = 200;
  /// Cadence of DB snapshots (crash-recovery points). The snapshot daemon
  /// is only armed when the fault plan contains server crashes, so fault-
  /// free runs schedule no extra events and stay bit-identical.
  SimTime snapshot_period = SimTime::seconds(60);

  // --- scheduler -------------------------------------------------------------
  /// Simulated CPU time the scheduler spends on one RPC.
  SimTime rpc_service_time = SimTime::millis(200);
  /// Minimum delay a client must leave between scheduler RPCs
  /// (BOINC's min_sendwork_interval).
  SimTime min_request_delay = SimTime::seconds(6);
  /// Never hand two results of one WU to the same host (BOINC's
  /// "one result per user per WU" rule; required for honest quorums).
  bool one_result_per_host_per_wu = true;
  /// Deadline check: skip a host too slow to finish a result before its
  /// report deadline given the work already queued on it ("The scheduler
  /// takes into account the workload of each requester, as well as its
  /// hardware ... information", §III.B).
  bool deadline_check = true;
  /// Max results handed out in a single RPC.
  int max_results_per_rpc = 8;
  /// Fast lost-work recovery (BOINC's "resend lost results"): clients
  /// enumerate every result they still hold in each scheduler request and
  /// the scheduler reconciles the list against the DB — an in-progress
  /// result the client no longer knows about (crash/restart wiped it) is
  /// marked over/kLost and re-issued at the next transitioner pass instead
  /// of waiting out the report deadline. Off by default: the extra request
  /// fields change RPC sizes, so golden traces pin the disabled wire format.
  bool resend_lost_results = false;
  /// Companion mechanism: reducers report exhausted inter-client fetches
  /// `(job, map_index, holder)` on their next RPC; the jobtracker drops the
  /// dead holder's locations and the map re-runs early when no server
  /// mirror exists. Same default-off reasoning as resend_lost_results.
  bool report_fetch_failures = false;
  /// Cap on results simultaneously in progress on one host (BOINC's
  /// max_wus_in_progress); keeps one fast host from draining the feeder.
  int max_wus_in_progress = 2;

  // --- BOINC-MR (mr_jobtracker.xml) -------------------------------------------
  /// Default number of map / reduce tasks for submitted jobs.
  int default_n_maps = 20;
  int default_n_reducers = 5;
  /// Mirror map outputs to the data server. Required for plain-BOINC
  /// clients to run reduce tasks and for the peer-download fallback
  /// (§III.C); BOINC-MR can turn it off to save server bandwidth.
  bool mirror_map_outputs = true;
  /// Mitigation E4 (§IV.C): tell clients to report finished map results
  /// immediately instead of batching them into the next work-fetch RPC.
  bool report_map_results_immediately = false;
  /// Mitigation E5 (§IV.C): create reduce work units as soon as the first
  /// map validates and stream mapper locations to reducers as maps finish,
  /// so reducers download intermediate data early.
  bool pipelined_reduce = false;
  /// Ablation E14: delay-scheduling-style data locality for reduce tasks —
  /// prefer handing a reduce result to a host that already holds validated
  /// map outputs for that partition (it then reads them from local disk
  /// instead of fetching). A result is released to any host after being
  /// skipped `locality_max_skips` times, so locality never starves work.
  bool locality_aware_reduce = false;
  int locality_max_skips = 3;
  /// Extension E15 (the authors' ref [1] direction, "Optimizing Data
  /// Distribution in Desktop Grid Platforms"): BOINC-MR clients cache and
  /// serve the map inputs they download; the scheduler then offers those
  /// cachers to later replicas as peer sources, taking the second wave of
  /// input distribution off the data server.
  bool peer_input_distribution = false;
  /// Max cacher endpoints attached per input file.
  int max_input_peers = 3;
  /// Volunteer replica store (vcmr::store): clients advertise the chunks
  /// they serve via Bloom filters; the scheduler attaches trusted serve
  /// points to assignments and gates chunk dispatch on replica existence.
  /// Default-off: no extra wire bytes, golden traces bit-identical.
  store::VolunteerStoreConfig volunteer_store;
};

/// Parses the `<mr_jobtracker>` document; unknown fields keep defaults.
/// Throws vcmr::Error on malformed XML.
ProjectConfig parse_mr_jobtracker(const std::string& xml,
                                  ProjectConfig base = {});

/// Serializes the MR-relevant fields back to `mr_jobtracker.xml` form.
std::string mr_jobtracker_xml(const ProjectConfig& cfg);

/// The project fields `mr_jobtracker.xml` and scenario XML's `<project>`
/// block share: target_nresults, min_quorum and the BOINC-MR and recovery
/// switches. Reads them from `p` over `cfg` (absent or unparsable fields
/// keep their values) and checks 1 <= min_quorum <= target_nresults; errors
/// name `doc`.
void read_project_fields(const common::XmlNode& p, const std::string& doc,
                         ProjectConfig& cfg);
/// Appends those fields to `p`.
void write_project_fields(common::XmlNode& p, const ProjectConfig& cfg);

/// The `<replication policy="fixed|adaptive">` block, shared by
/// `mr_jobtracker.xml` and scenario XML. Reads `r` over `rc` (absent fields
/// keep their values) and validates the result; errors name `doc`.
void read_replication(const common::XmlNode& r, const std::string& doc,
                      rep::ReputationConfig& rc);
/// Appends the `<replication>` block for `rc` to `parent`.
void write_replication(common::XmlNode& parent,
                       const rep::ReputationConfig& rc);

}  // namespace vcmr::server
