#pragma once
// Project: the assembled BOINC-MR server.
//
// Owns the database, storage tier, scheduler, JobTracker, and the daemon
// quartet (feeder / transitioner / validator / assimilator), wires their
// callbacks together, and runs them on their configured cadences — one
// object standing in for a whole BOINC project deployment.

#include <memory>
#include <optional>

#include "db/database.h"
#include "net/http.h"
#include "reputation/reputation.h"
#include "server/assimilator.h"
#include "server/config.h"
#include "server/feeder.h"
#include "server/jobtracker.h"
#include "server/scheduler.h"
#include "server/transitioner.h"
#include "server/validator.h"
#include "sim/simulation.h"
#include "store/store.h"

namespace vcmr::server {

class Project {
 public:
  static constexpr int kDataPort = 80;
  static constexpr int kSchedulerPort = 8080;

  Project(sim::Simulation& sim, net::HttpService& http, NodeId server_node,
          ProjectConfig cfg = {});

  /// Starts the daemons. Call once, before running the simulation.
  void start();
  void stop();

  // --- crash-fault support ---------------------------------------------------
  /// Arms the periodic DB-snapshot daemon (cfg.snapshot_period) and takes
  /// an immediate snapshot at start(), so a restore point always exists.
  /// Call before start(). Off by default: the extra daemon ticks would
  /// perturb the event count of fault-free golden runs.
  void enable_snapshots() { snapshots_enabled_ = true; }
  /// Saves the current DB as the latest restore point.
  void take_snapshot();
  /// Scheduler/daemon state loss: every daemon stops, the scheduler
  /// answers 503, and all CGI soft state is discarded. The storage tier is
  /// untouched — staged files live on disk, as when a BOINC project's
  /// database host dies but its file servers keep serving.
  void crash_server();
  /// Restore from the latest snapshot: reload the DB (id counters keep
  /// their floors), clear the feeder cache, and restart the daemons and
  /// scheduler. The JobTracker keeps its job state in the database, so the
  /// restored tables are all it needs.
  /// Results assigned or reported inside the lost window roll back to
  /// in-progress and reconcile via resend_lost_results.
  void restore_server();
  bool crashed() const { return crashed_; }
  std::int64_t snapshots_taken() const { return snapshots_taken_; }

  MrJobId submit_job(const MrJobSpec& spec) { return jobtracker_.submit(spec); }

  // --- component access -----------------------------------------------------
  db::Database& database() { return db_; }
  const db::Database& database() const { return db_; }
  rep::ReputationStore& reputation() { return rep_store_; }
  const rep::ReputationStore& reputation() const { return rep_store_; }
  /// The storage tier (N sharded data servers; shard 0 on the server node).
  store::StorageTier& storage() { return data_; }
  const store::StorageTier& storage() const { return data_; }
  JobTracker& jobtracker() { return jobtracker_; }
  Scheduler& scheduler() { return scheduler_; }
  const ProjectConfig& config() const { return cfg_; }
  NodeId node() const { return node_; }
  net::Endpoint scheduler_endpoint() const { return scheduler_.endpoint(); }

 private:
  sim::Simulation& sim_;
  NodeId node_;
  ProjectConfig cfg_;
  db::Database db_;
  rep::ReputationStore rep_store_;
  rep::AdaptiveReplicationPolicy rep_policy_;
  store::StorageTier data_;
  Feeder feeder_;
  Transitioner transitioner_;
  Validator validator_;
  Assimilator assimilator_;
  JobTracker jobtracker_;
  Scheduler scheduler_;
  // BOINC's server side is a set of daemons, each polling the database on
  // its own cadence; the gaps between those polls are part of the latency
  // the paper measures (§IV.B). Engaged while running: start() emplaces,
  // stop() resets. No tick may stop its own daemon: resetting the optional
  // inside its callback would destroy the running task.
  std::optional<sim::PeriodicTask> feeder_daemon_;
  std::optional<sim::PeriodicTask> transitioner_daemon_;
  std::optional<sim::PeriodicTask> validator_daemon_;
  std::optional<sim::PeriodicTask> assimilator_daemon_;
  std::optional<sim::PeriodicTask> snapshot_daemon_;
  bool snapshots_enabled_ = false;
  bool crashed_ = false;
  std::string last_snapshot_;
  std::int64_t snapshots_taken_ = 0;
};

}  // namespace vcmr::server
