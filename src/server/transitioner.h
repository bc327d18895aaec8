#pragma once
// Transitioner: drives the work-unit state machine.
//
// As in BOINC (§III.B: "The transitioner and feeder daemons at the server
// create the results (work unit instances) and add them to the project's
// database"), each pass it (a) times out overdue in-progress results,
// (b) creates replica results until a work unit has `target_nresults`
// usable instances, replacing errored or invalid ones, and (c) retires
// work units that accumulated too many errors.

#include <functional>

#include "db/database.h"
#include "reputation/reputation.h"
#include "server/config.h"

namespace vcmr::server {

class Transitioner {
 public:
  /// `rep` (optional): missed deadlines break the host's valid streak.
  Transitioner(db::Database& db, const ProjectConfig& cfg,
               rep::ReputationStore* rep = nullptr)
      : db_(db), cfg_(cfg), rep_(rep) {}

  /// One daemon pass at simulated time `now`. Returns the rows it touched
  /// (results timed out, created or aborted, plus work units errored out),
  /// for daemon telemetry.
  int pass(SimTime now);

  /// Invoked when a WU gains error_mass (job-abort handling upstream).
  void set_error_listener(std::function<void(WorkUnitId)> fn) {
    on_error_ = std::move(fn);
  }

 private:
  int transition(db::WorkUnitRecord& wu);

  db::Database& db_;
  const ProjectConfig& cfg_;
  rep::ReputationStore* rep_;
  std::function<void(WorkUnitId)> on_error_;
};

}  // namespace vcmr::server
