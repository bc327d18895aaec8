#include "server/validator.h"

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "obs/metrics.h"

namespace vcmr::server {

int Validator::pass() {
  std::vector<WorkUnitId> candidates;
  db_.for_each_workunit([&](const db::WorkUnitRecord& wu) {
    if (wu.canonical_found || wu.error_mass) return;
    int successes = 0;
    for (const ResultId rid : db_.results_of(wu.id)) {
      const db::ResultRecord& r = db_.result(rid);
      if (r.server_state == db::ServerState::kOver &&
          r.outcome == db::Outcome::kSuccess &&
          r.validate_state != db::ValidateState::kInvalid) {
        ++successes;
      }
    }
    if (successes >= wu.min_quorum) candidates.push_back(wu.id);
  });
  int touched = 0;
  for (const WorkUnitId wid : candidates) touched += check(db_.workunit(wid));
  return touched;
}

int Validator::check(db::WorkUnitRecord& wu) {
  // Bucket successful results by reported digest, preserving id order.
  std::map<common::Digest128, std::vector<ResultId>> by_digest;
  for (const ResultId rid : db_.results_of(wu.id)) {
    const db::ResultRecord& r = db_.result(rid);
    if (r.server_state == db::ServerState::kOver &&
        r.outcome == db::Outcome::kSuccess &&
        r.validate_state != db::ValidateState::kInvalid) {
      by_digest[r.output_digest].push_back(rid);
    }
  }

  // Any digest with a quorum of agreement wins; ties cannot happen with
  // min_quorum > total/2, and with smaller quorums the smallest digest
  // (map order) wins deterministically.
  const std::vector<ResultId>* winners = nullptr;
  for (const auto& [digest, rids] : by_digest) {
    if (static_cast<int>(rids.size()) >= wu.min_quorum) {
      winners = &rids;
      wu.canonical_digest = digest;
      break;
    }
  }
  if (winners == nullptr) {
    // Mark everything inconclusive and ask the transitioner for another
    // replica (it counts only usable results, and inconclusive ones are
    // still "success", so we must flag a retry explicitly when every
    // target result has reported).
    bool all_over = true;
    for (const ResultId rid : db_.results_of(wu.id)) {
      db::ResultRecord& r = db_.result(rid);
      if (r.server_state == db::ServerState::kUnsent ||
          r.server_state == db::ServerState::kInProgress) {
        all_over = false;
      }
      if (r.server_state == db::ServerState::kOver &&
          r.outcome == db::Outcome::kSuccess &&
          r.validate_state == db::ValidateState::kInit) {
        r.validate_state = db::ValidateState::kInconclusive;
        if (rep_ && r.host.valid()) rep_->record_inconclusive(r.host);
      }
    }
    if (all_over) {
      // Force one more replica by raising the effective target: mark one
      // inconclusive result invalid is wrong; instead bump target within
      // max_total via a transition flag — the transitioner counts
      // successes as usable, so temporarily treat the tie by requesting
      // an extra result.
      if (wu.target_nresults < wu.max_total_results) ++wu.target_nresults;
      db_.flag_transition(wu.id);
    }
    return 1;  // one inconclusive check
  }

  wu.canonical_found = true;
  wu.canonical_result = winners->front();
  wu.assimilate_state = db::AssimilateState::kReady;

  // BOINC credit policy: every valid replica is granted the quorum's
  // *minimum* claim, so a cheater's inflated claim is clipped by any
  // honest replica; invalid results earn nothing.
  double grant = std::numeric_limits<double>::infinity();
  for (const ResultId rid : *winners) {
    grant = std::min(grant, db_.result(rid).claimed_credit);
  }
  if (!std::isfinite(grant)) grant = 0;

  int judged = 0;
  for (const ResultId rid : db_.results_of(wu.id)) {
    db::ResultRecord& r = db_.result(rid);
    if (r.server_state != db::ServerState::kOver ||
        r.outcome != db::Outcome::kSuccess) {
      continue;
    }
    ++judged;
    if (r.output_digest == wu.canonical_digest) {
      r.validate_state = db::ValidateState::kValid;
      r.granted_credit = grant;
      if (r.host.valid()) {
        db_.host(r.host).total_credit += grant;
        if (rep_) rep_->record_valid(r.host);
      }
      obs::MetricsRegistry::instance()
          .counter("validator", "results_valid")
          .add();
    } else {
      r.validate_state = db::ValidateState::kInvalid;
      r.outcome = db::Outcome::kValidateError;
      if (rep_ && r.host.valid()) rep_->record_invalid(r.host);
      obs::MetricsRegistry::instance()
          .counter("validator", "results_invalid")
          .add();
    }
  }

  db_.flag_transition(wu.id);  // let the transitioner clean up unsent siblings
  if (on_validated_) on_validated_(wu.id);
  return judged;
}

}  // namespace vcmr::server
