#include "server/project.h"

#include <string>

#include "common/error.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace vcmr::server {

namespace {

/// Daemon cadences: the feeder refills its cache every 5 s, the other
/// daemons poll the database every 10 s.
constexpr SimTime kFeederPeriod = SimTime::seconds(5);
constexpr SimTime kTransitionerPeriod = SimTime::seconds(10);
constexpr SimTime kValidatorPeriod = SimTime::seconds(10);
constexpr SimTime kAssimilatorPeriod = SimTime::seconds(10);
/// Slots in the feeder's cache of ready-to-send results (BOINC's
/// shared-memory segment between feeder and scheduler).
constexpr int kFeederCacheSize = 200;

/// Telemetry for one daemon wakeup: pass count, rows-touched counter and
/// per-pass distribution, plus a "server" point when a traced pass did real
/// work.
void note_daemon_pass(sim::Simulation& sim, const char* daemon,
                      std::int64_t rows) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("daemon", "passes", {{"daemon", daemon}}).add();
  reg.counter("daemon", "rows_touched", {{"daemon", daemon}}).add(rows);
  // Bounds reach well past small-fleet row counts: a feeder pass over a
  // large fleet can touch thousands of rows, and the overflow bucket would
  // clamp p99 to the last bound (obs::Histogram::quantile).
  reg.histogram("daemon", "rows_per_pass",
                {0, 1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096},
                {{"daemon", daemon}})
      .observe(static_cast<double>(rows));
  auto* trace = sim.trace();
  if (trace != nullptr && rows > 0) {
    trace->point(sim.now(), "daemon", "server", daemon,
                 "rows=" + std::to_string(rows));
  }
}

}  // namespace

Project::Project(sim::Simulation& sim, net::HttpService& http,
                 NodeId server_node, ProjectConfig cfg)
    : sim_(sim),
      node_(server_node),
      cfg_(cfg),
      rep_store_(db_, cfg_.reputation),
      // The spot-check draws get their own named stream, so the fixed
      // policy stays bit-identical to pre-reputation seeds.
      rep_policy_(cfg_.reputation, rep_store_,
                  sim.rng_stream("rep.spotcheck")),
      data_(http, server_node, kDataPort),
      feeder_(db_, kFeederCacheSize),
      transitioner_(db_, cfg_, &rep_store_),
      validator_(db_, cfg_, &rep_store_),
      assimilator_(db_),
      jobtracker_(sim, db_, data_, cfg_),
      scheduler_(sim, db_, feeder_, jobtracker_, cfg_, http,
                 net::Endpoint{server_node, kSchedulerPort}, &rep_policy_) {
  validator_.set_validated_listener(
      [this](WorkUnitId wu) { jobtracker_.wu_validated(wu); });
  assimilator_.set_assimilated_listener(
      [this](WorkUnitId wu) { jobtracker_.wu_assimilated(wu); });
  transitioner_.set_error_listener(
      [this](WorkUnitId wu) { jobtracker_.wu_errored(wu); });
}

void Project::start() {
  feeder_daemon_.emplace(sim_, kFeederPeriod, [this] {
    note_daemon_pass(sim_, "feeder", feeder_.refill());
  });
  transitioner_daemon_.emplace(sim_, kTransitionerPeriod, [this] {
    note_daemon_pass(sim_, "transitioner", transitioner_.pass(sim_.now()));
  });
  validator_daemon_.emplace(sim_, kValidatorPeriod, [this] {
    note_daemon_pass(sim_, "validator", validator_.pass());
  });
  assimilator_daemon_.emplace(sim_, kAssimilatorPeriod, [this] {
    note_daemon_pass(sim_, "assimilator", assimilator_.pass());
  });
  if (snapshots_enabled_) {
    take_snapshot();  // a restore point exists from the first instant
    snapshot_daemon_.emplace(sim_, cfg_.snapshot_period, [this] {
      take_snapshot();
      note_daemon_pass(sim_, "snapshot", 1);
    });
  }
}

void Project::stop() {
  feeder_daemon_.reset();
  transitioner_daemon_.reset();
  validator_daemon_.reset();
  assimilator_daemon_.reset();
  snapshot_daemon_.reset();
}

void Project::take_snapshot() {
  last_snapshot_ = db_.save();
  ++snapshots_taken_;
}

void Project::crash_server() {
  if (crashed_) return;
  crashed_ = true;
  stop();
  scheduler_.crash();
  if (auto* trace = sim_.trace()) {
    trace->point(sim_.now(), "project", "server", "server_crash",
                 "daemons down, scheduler 503");
  }
}

void Project::restore_server() {
  if (!crashed_) return;
  require(!last_snapshot_.empty(),
          "Project::restore_server: no snapshot to restore from "
          "(enable_snapshots before start)");
  db_.restore_from(last_snapshot_);
  feeder_.clear();
  crashed_ = false;
  scheduler_.restore();
  start();  // daemons resume on their cadences, snapshots included
  if (auto* trace = sim_.trace()) {
    trace->point(sim_.now(), "project", "server", "server_restore",
                 "DB snapshot restored, daemons restarted");
  }
}

}  // namespace vcmr::server
