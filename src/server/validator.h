#pragma once
// Validator: quorum validation by output digest.
//
// The paper reuses BOINC's replication mechanism unchanged (§III.B: "each
// map work unit is sent to N different users ... and in order to be
// validated there must be a quorum of identical outputs — 2 out of the 3
// users must return the same value, for example. This was also applied to
// reduce work units."). Replicas agree iff they report the same 128-bit
// output digest; the first agreeing result (id order) becomes canonical.

#include <functional>

#include "db/database.h"
#include "reputation/reputation.h"
#include "server/config.h"

namespace vcmr::server {

class Validator {
 public:
  /// `rep` (optional) receives every validate outcome, so hosts earn and
  /// lose the trust the adaptive replication policy acts on.
  Validator(db::Database& db, const ProjectConfig& cfg,
            rep::ReputationStore* rep = nullptr)
      : db_(db), cfg_(cfg), rep_(rep) {}

  /// One daemon pass. Returns the rows it touched (results judged valid or
  /// invalid, plus inconclusive quorum checks), for daemon telemetry.
  int pass();

  /// Fires once per work unit when it gains a canonical result.
  void set_validated_listener(std::function<void(WorkUnitId)> fn) {
    on_validated_ = std::move(fn);
  }

 private:
  int check(db::WorkUnitRecord& wu);

  db::Database& db_;
  const ProjectConfig& cfg_;
  rep::ReputationStore* rep_;
  std::function<void(WorkUnitId)> on_validated_;
};

}  // namespace vcmr::server
