#include "server/transitioner.h"

namespace vcmr::server {

int Transitioner::pass(SimTime now) {
  int touched = 0;
  // (a) Report deadlines: overdue results become no-replies.
  for (const ResultId rid : db_.timed_out_results(now)) {
    db::ResultRecord& r = db_.result(rid);
    db_.set_server_state(rid, db::ServerState::kOver);
    r.outcome = db::Outcome::kNoReply;
    ++touched;
    if (rep_ && r.host.valid()) rep_->record_error(r.host);
    db_.flag_transition(r.wu);
  }

  // (b)/(c) Handle every flagged work unit.
  for (const WorkUnitId wid : db_.transition_pending()) {
    touched += transition(db_.workunit(wid));
    db_.clear_transition(wid);
  }
  return touched;
}

int Transitioner::transition(db::WorkUnitRecord& wu) {
  if (wu.error_mass) return 0;

  int unsent = 0, in_progress = 0, success = 0, errors = 0, total = 0;
  int inconclusive = 0;
  for (const ResultId rid : db_.results_of(wu.id)) {
    const db::ResultRecord& r = db_.result(rid);
    ++total;
    switch (r.server_state) {
      case db::ServerState::kUnsent:
        ++unsent;
        break;
      case db::ServerState::kInProgress:
        ++in_progress;
        break;
      case db::ServerState::kOver:
        if (r.outcome == db::Outcome::kSuccess &&
            r.validate_state != db::ValidateState::kInvalid) {
          ++success;
          if (r.validate_state == db::ValidateState::kInconclusive) {
            ++inconclusive;
          }
        } else {
          ++errors;
        }
        break;
      case db::ServerState::kInactive:
        break;
    }
  }

  // No quorum is ever going to form: every allowed replica has reported,
  // the validator marked them all mutually inconsistent (inconclusive),
  // and the replica budget is exhausted. BOINC errors such work units out
  // with "too many total results".
  if (!wu.canonical_found && total >= wu.max_total_results &&
      unsent + in_progress == 0 && inconclusive == success && success > 0) {
    errors = wu.max_error_results;  // force the error-mass path below
  }

  int touched = 0;  // results aborted or created, plus the WU if errored

  // Quorum reached: the work unit is complete regardless of how many
  // replicas failed, so this must be checked before the error-mass cut —
  // otherwise a late straggler timing out after validation could push a
  // finished WU into error_mass and fail the whole job.
  if (wu.canonical_found) {
    // Unsent replicas are no longer needed.
    for (const ResultId rid : db_.results_of(wu.id)) {
      db::ResultRecord& r = db_.result(rid);
      if (r.server_state == db::ServerState::kUnsent) {
        db_.set_server_state(rid, db::ServerState::kOver);
        r.outcome = db::Outcome::kAbandoned;
        ++touched;
      }
    }
    return touched;
  }

  // Too many failures: give up on the work unit.
  if (errors >= wu.max_error_results) {
    wu.error_mass = true;
    ++touched;
    for (const ResultId rid : db_.results_of(wu.id)) {
      db::ResultRecord& r = db_.result(rid);
      if (r.server_state == db::ServerState::kUnsent) {
        db_.set_server_state(rid, db::ServerState::kOver);
        r.outcome = db::Outcome::kAbandoned;
        ++touched;
      }
    }
    if (on_error_) on_error_(wu.id);
    return touched;
  }

  // Replicate up to target_nresults usable instances, bounded by
  // max_total_results.
  const int usable = unsent + in_progress + success;
  int need = wu.target_nresults - usable;
  while (need > 0 && total < wu.max_total_results) {
    db::ResultRecord proto;
    proto.wu = wu.id;
    proto.server_state = db::ServerState::kUnsent;
    db_.create_result(proto);
    ++touched;
    --need;
    ++total;
  }
  return touched;
}

}  // namespace vcmr::server
