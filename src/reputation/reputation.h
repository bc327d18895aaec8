#pragma once
// Host reputation and adaptive replication (vcmr::rep).
//
// The paper validates every work unit with a fixed 2-way quorum (§III.B),
// doubling the compute bill regardless of how trustworthy the fleet is.
// BOINC's production answer — Anderson, "BOINC: A Platform for Volunteer
// Computing" — is *adaptive replication*: hosts earn reputation from their
// validation history, and work sent to a trusted host runs as a single
// replica except for randomized spot-checks. This module keeps the per-host
// history (on `db::HostRecord`) and makes the per-work-unit replication
// decisions; the server daemons feed outcomes back in and act on the
// decisions.
//
// Trust model: a host is trusted iff it has returned at least
// `min_consecutive_valid` consecutive valid results AND its exponentially
// decayed error-rate estimate is at or below `max_error_rate`. The estimate
// starts at a pessimistic prior, so fresh hosts must earn trust; any invalid
// result or runtime error resets the streak, so one wrong answer demotes a
// host immediately.

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "db/database.h"

namespace vcmr::rep {

enum class PolicyMode {
  kFixed,     ///< seed behaviour: every WU gets the configured quorum
  kAdaptive,  ///< trusted hosts run single replicas, spot-checked at random
};
const char* to_string(PolicyMode m);
/// Parses "fixed" / "adaptive"; throws vcmr::Error otherwise.
PolicyMode policy_mode_from_string(const std::string& s);

struct ReputationConfig {
  PolicyMode mode = PolicyMode::kFixed;
  /// Valid results a host must return in a row before it is trusted.
  int min_consecutive_valid = 10;
  /// Trusted hosts must also keep their decayed error estimate under this.
  double max_error_rate = 0.05;
  /// Probability that work assigned to a trusted host is replicated anyway.
  double spot_check_probability = 0.1;
  /// Pessimistic prior for the error estimate of a host with no history.
  double error_rate_prior = 0.1;
  /// Per-outcome exponential decay: rate <- rate*decay + outcome*(1-decay).
  double error_rate_decay = 0.95;
  /// Scheduler deferrals before single-replica work is released to an
  /// untrusted host (which then escalates it to a full quorum).
  int trust_max_skips = 2;
};

/// Read/update view over the reputation fields of the host table.
class ReputationStore {
 public:
  ReputationStore(db::Database& db, const ReputationConfig& cfg)
      : db_(db), cfg_(cfg) {}

  /// Validate outcomes, reported by the validator.
  void record_valid(HostId host);
  void record_invalid(HostId host);
  void record_inconclusive(HostId host);
  /// Runtime failures (client error, missed deadline), reported by the
  /// scheduler and transitioner; breaks the streak without moving the
  /// error-rate estimate (the answer was never judged).
  void record_error(HostId host);

  bool is_trusted(HostId host) const;
  bool is_trusted(const db::HostRecord& h) const;
  /// Trusted hosts right now (streak + error bound), deterministic order.
  int trusted_count() const;

  const ReputationConfig& config() const { return cfg_; }

 private:
  db::Database& db_;
  const ReputationConfig& cfg_;
};

/// Per-work-unit replication choice.
struct Replication {
  int target_nresults = 2;
  int min_quorum = 2;
};

/// Replication a newly created WU starts with. Fixed mode: the project base
/// (the paper's 2/2). Adaptive mode: one optimistic replica; the first
/// assignment escalates it if the assignee doesn't warrant trust.
Replication initial_replication(const ReputationConfig& cfg,
                                const Replication& base);

/// What the scheduler should do with single-replica work it is about to
/// hand to a host.
enum class AssignmentDecision {
  kSingle,     ///< trusted host, no spot-check drawn: leave it at one replica
  kSpotCheck,  ///< trusted host, spot-check drawn: escalate to a full quorum
  kEscalate,   ///< untrusted host: escalate to a full quorum
};

/// Decides replication per work unit. Created once per project; the
/// spot-check draws come from a dedicated deterministic Rng stream so the
/// fixed policy reproduces seed runs bit-for-bit.
class AdaptiveReplicationPolicy {
 public:
  AdaptiveReplicationPolicy(const ReputationConfig& cfg, ReputationStore& store,
                            common::Rng spot_rng)
      : cfg_(cfg), store_(store), spot_rng_(spot_rng) {}

  bool adaptive() const { return cfg_.mode == PolicyMode::kAdaptive; }

  /// Draws the decision for handing one result of a still-single-replica WU
  /// to `host`. Consumes a spot-check draw only for trusted hosts.
  AssignmentDecision decide_assignment(HostId host);

  ReputationStore& store() { return store_; }
  const ReputationStore& store() const { return store_; }

 private:
  const ReputationConfig& cfg_;
  ReputationStore& store_;
  common::Rng spot_rng_;
};

}  // namespace vcmr::rep
