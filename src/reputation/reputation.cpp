#include "reputation/reputation.h"

#include "common/error.h"

namespace vcmr::rep {

const char* to_string(PolicyMode m) {
  switch (m) {
    case PolicyMode::kFixed: return "fixed";
    case PolicyMode::kAdaptive: return "adaptive";
  }
  return "?";
}

PolicyMode policy_mode_from_string(const std::string& s) {
  if (s == "fixed") return PolicyMode::kFixed;
  if (s == "adaptive") return PolicyMode::kAdaptive;
  throw Error("replication policy must be 'fixed' or 'adaptive', got '" + s +
              "'");
}

bool ReputationStore::is_trusted(const db::HostRecord& h) const {
  return h.consecutive_valid >= cfg_.min_consecutive_valid &&
         h.error_rate <= cfg_.max_error_rate;
}

bool ReputationStore::is_trusted(HostId host) const {
  return is_trusted(db_.host(host));
}

int ReputationStore::trusted_count() const {
  int n = 0;
  db_.for_each_host([&](const db::HostRecord& h) {
    if (is_trusted(h)) ++n;
  });
  return n;
}

void ReputationStore::record_valid(HostId host) {
  db::HostRecord& h = db_.host(host);
  ++h.consecutive_valid;
  h.error_rate *= cfg_.error_rate_decay;
  ++h.results_valid;
}

void ReputationStore::record_invalid(HostId host) {
  db::HostRecord& h = db_.host(host);
  h.consecutive_valid = 0;
  h.error_rate = h.error_rate * cfg_.error_rate_decay +
                 (1.0 - cfg_.error_rate_decay);
  ++h.results_invalid;
}

void ReputationStore::record_inconclusive(HostId host) {
  // The answer hasn't been judged yet; valid/invalid follows once the
  // quorum settles, so only the tally moves here.
  ++db_.host(host).results_inconclusive;
}

void ReputationStore::record_error(HostId host) {
  db::HostRecord& h = db_.host(host);
  h.consecutive_valid = 0;
  ++h.results_errored;
}

Replication initial_replication(const ReputationConfig& cfg,
                                const Replication& base) {
  if (cfg.mode != PolicyMode::kAdaptive) return base;
  return Replication{1, 1};
}

AssignmentDecision AdaptiveReplicationPolicy::decide_assignment(HostId host) {
  if (!store_.is_trusted(host)) return AssignmentDecision::kEscalate;
  if (spot_rng_.chance(cfg_.spot_check_probability)) {
    return AssignmentDecision::kSpotCheck;
  }
  return AssignmentDecision::kSingle;
}

}  // namespace vcmr::rep
