#pragma once
// Project-wide configuration, including the BOINC-MR additions the paper
// keeps in `mr_jobtracker.xml` (§III.B: "We created a general configuration
// file to the project's directory, mr_jobtracker.xml, which is used to
// specify MapReduce parameters"). Scenario XML fills it; the Project keeps
// the one copy its daemons, scheduler, JobTracker and clients all read.

#include "common/types.h"
#include "reputation/reputation.h"
#include "store/store.h"

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

  // --- crash recovery -------------------------------------------------------
  /// Cadence of DB snapshots (crash-recovery points). The snapshot daemon
  /// is only armed when the fault plan contains server crashes, so fault-
  /// free runs schedule no extra events and stay bit-identical.
  SimTime snapshot_period = SimTime::seconds(60);

  // --- scheduler -------------------------------------------------------------
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

  // --- BOINC-MR (the paper's mr_jobtracker.xml) ----------------------------
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
  /// instead of fetching). A result is released to any host after a few
  /// skips (scheduler.cpp's kLocalityMaxSkips), so locality never starves
  /// work.
  bool locality_aware_reduce = false;
  /// Extension E15 (the authors' ref [1] direction, "Optimizing Data
  /// Distribution in Desktop Grid Platforms"): BOINC-MR clients cache and
  /// serve the map inputs they download; the scheduler then offers those
  /// cachers to later replicas as peer sources, taking the second wave of
  /// input distribution off the data server.
  bool peer_input_distribution = false;
  /// Volunteer replica store (vcmr::store): clients advertise the chunks
  /// they serve via Bloom filters; the scheduler attaches trusted serve
  /// points to assignments and gates chunk dispatch on replica existence.
  /// Default-off: no extra wire bytes, golden traces bit-identical.
  store::VolunteerStoreConfig volunteer_store;
};

}  // namespace vcmr::server
