// vcmr::rep: reputation store math, adaptive replication policy decisions,
// and the end-to-end containment guarantees — a corrupted digest must never
// become canonical under a 10%-faulty byzantine fleet in either policy mode,
// inconclusive work units must earn escalation replicas, and a warm adaptive
// fleet must cut replication overhead well below the fixed 2-way baseline.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/error.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "core/scenario_io.h"
#include "db/database.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"
#include "reputation/reputation.h"
#include "volunteer/byzantine.h"

namespace vcmr {
namespace {

// ---------------------------------------------------------------------------
// ReputationStore unit tests
// ---------------------------------------------------------------------------

rep::ReputationConfig tight_config() {
  rep::ReputationConfig cfg;
  cfg.mode = rep::PolicyMode::kAdaptive;
  cfg.min_consecutive_valid = 3;
  cfg.max_error_rate = 0.05;
  cfg.error_rate_prior = 0.1;
  cfg.error_rate_decay = 0.8;  // 0.1 * 0.8^4 = 0.041 <= 0.05
  return cfg;
}

HostId make_host(db::Database& db, double prior) {
  db::HostRecord proto;
  proto.name = "h";
  proto.error_rate = prior;
  return db.create_host(proto).id;
}

TEST(ReputationStore, TrustRequiresStreakAndErrorBound) {
  db::Database db;
  const rep::ReputationConfig cfg = tight_config();
  rep::ReputationStore store(db, cfg);
  const HostId h = make_host(db, cfg.error_rate_prior);

  EXPECT_FALSE(store.is_trusted(h));  // pessimistic prior: no free trust
  store.record_valid(h);
  store.record_valid(h);
  store.record_valid(h);
  // Streak satisfied (3) but error rate is 0.1*0.8^3 = 0.0512 > 0.05.
  EXPECT_EQ(db.host(h).consecutive_valid, 3);
  EXPECT_FALSE(store.is_trusted(h));
  store.record_valid(h);
  EXPECT_TRUE(store.is_trusted(h));  // the promotion
  EXPECT_EQ(store.trusted_count(), 1);
  EXPECT_EQ(db.host(h).results_valid, 4);
}

TEST(ReputationStore, InvalidDemotesImmediately) {
  db::Database db;
  const rep::ReputationConfig cfg = tight_config();
  rep::ReputationStore store(db, cfg);
  const HostId h = make_host(db, cfg.error_rate_prior);
  for (int i = 0; i < 6; ++i) store.record_valid(h);
  ASSERT_TRUE(store.is_trusted(h));

  const double before = db.host(h).error_rate;
  store.record_invalid(h);
  EXPECT_FALSE(store.is_trusted(h));
  EXPECT_EQ(db.host(h).consecutive_valid, 0);
  EXPECT_GT(db.host(h).error_rate, before);  // estimate moved toward 1
  EXPECT_EQ(db.host(h).results_invalid, 1);
}

TEST(ReputationStore, RuntimeErrorBreaksStreakWithoutMovingEstimate) {
  db::Database db;
  const rep::ReputationConfig cfg = tight_config();
  rep::ReputationStore store(db, cfg);
  const HostId h = make_host(db, cfg.error_rate_prior);
  store.record_valid(h);
  store.record_valid(h);

  const double rate = db.host(h).error_rate;
  store.record_error(h);
  EXPECT_EQ(db.host(h).consecutive_valid, 0);    // streak gone...
  EXPECT_DOUBLE_EQ(db.host(h).error_rate, rate);  // ...answer never judged
  EXPECT_EQ(db.host(h).results_errored, 1);
}

TEST(ReputationStore, InconclusiveOnlyTallies) {
  db::Database db;
  const rep::ReputationConfig cfg = tight_config();
  rep::ReputationStore store(db, cfg);
  const HostId h = make_host(db, cfg.error_rate_prior);
  store.record_valid(h);

  const double rate = db.host(h).error_rate;
  store.record_inconclusive(h);
  EXPECT_EQ(db.host(h).consecutive_valid, 1);
  EXPECT_DOUBLE_EQ(db.host(h).error_rate, rate);
  EXPECT_EQ(db.host(h).results_inconclusive, 1);
}

TEST(ReputationStore, HistorySurvivesSnapshotRoundTrip) {
  db::Database db;
  const rep::ReputationConfig cfg = tight_config();
  rep::ReputationStore store(db, cfg);
  const HostId h = make_host(db, cfg.error_rate_prior);
  for (int i = 0; i < 5; ++i) store.record_valid(h);
  store.record_inconclusive(h);
  store.record_error(h);

  db::Database copy = db::Database::load(db.save());
  const db::HostRecord& a = db.host(h);
  const db::HostRecord& b = copy.host(h);
  EXPECT_EQ(b.consecutive_valid, a.consecutive_valid);
  EXPECT_DOUBLE_EQ(b.error_rate, a.error_rate);
  EXPECT_EQ(b.results_valid, a.results_valid);
  EXPECT_EQ(b.results_inconclusive, a.results_inconclusive);
  EXPECT_EQ(b.results_errored, a.results_errored);
  // Trust is a pure function of the persisted fields.
  rep::ReputationStore store2(copy, cfg);
  EXPECT_EQ(store2.is_trusted(h), store.is_trusted(h));
}

// ---------------------------------------------------------------------------
// Policy decisions
// ---------------------------------------------------------------------------

TEST(ReplicationPolicy, ModeParsing) {
  EXPECT_EQ(rep::policy_mode_from_string("fixed"), rep::PolicyMode::kFixed);
  EXPECT_EQ(rep::policy_mode_from_string("adaptive"),
            rep::PolicyMode::kAdaptive);
  EXPECT_THROW(rep::policy_mode_from_string("bogus"), Error);
}

TEST(ReplicationPolicy, InitialReplicationPerMode) {
  rep::ReputationConfig cfg;
  const rep::Replication base{2, 2};
  cfg.mode = rep::PolicyMode::kFixed;
  EXPECT_EQ(rep::initial_replication(cfg, base).target_nresults, 2);
  EXPECT_EQ(rep::initial_replication(cfg, base).min_quorum, 2);
  cfg.mode = rep::PolicyMode::kAdaptive;
  EXPECT_EQ(rep::initial_replication(cfg, base).target_nresults, 1);
  EXPECT_EQ(rep::initial_replication(cfg, base).min_quorum, 1);
}

TEST(ReplicationPolicy, AssignmentDecisions) {
  db::Database db;
  rep::ReputationConfig cfg = tight_config();
  rep::ReputationStore store(db, cfg);
  const HostId fresh = make_host(db, cfg.error_rate_prior);
  const HostId veteran = make_host(db, cfg.error_rate_prior);
  for (int i = 0; i < 6; ++i) store.record_valid(veteran);
  ASSERT_TRUE(store.is_trusted(veteran));

  common::RngStreamFactory rngs(7);
  {
    cfg.spot_check_probability = 0.0;
    rep::AdaptiveReplicationPolicy policy(cfg, store, rngs.stream("a"));
    EXPECT_EQ(policy.decide_assignment(fresh),
              rep::AssignmentDecision::kEscalate);
    EXPECT_EQ(policy.decide_assignment(veteran),
              rep::AssignmentDecision::kSingle);
  }
  {
    cfg.spot_check_probability = 1.0;
    rep::AdaptiveReplicationPolicy policy(cfg, store, rngs.stream("b"));
    EXPECT_EQ(policy.decide_assignment(veteran),
              rep::AssignmentDecision::kSpotCheck);
  }
}

TEST(ReplicationPolicy, ScenarioXmlRoundTripsKnobs) {
  core::Scenario s;
  s.project.reputation.mode = rep::PolicyMode::kAdaptive;
  s.project.reputation.min_consecutive_valid = 4;
  s.project.reputation.spot_check_probability = 0.25;
  s.project.reputation.trust_max_skips = 5;
  const core::Scenario back = core::scenario_from_xml(core::scenario_to_xml(s));
  EXPECT_EQ(back.project.reputation.mode, rep::PolicyMode::kAdaptive);
  EXPECT_EQ(back.project.reputation.min_consecutive_valid, 4);
  EXPECT_DOUBLE_EQ(back.project.reputation.spot_check_probability, 0.25);
  EXPECT_EQ(back.project.reputation.trust_max_skips, 5);
}

// ---------------------------------------------------------------------------
// End-to-end containment + overhead
// ---------------------------------------------------------------------------

std::string corpus(Bytes size, std::uint64_t seed) {
  common::RngStreamFactory f(seed);
  common::Rng rng = f.stream("corpus");
  mr::ZipfOptions zo;
  zo.vocabulary = 400;
  return mr::ZipfCorpus(zo).generate(size, rng);
}

core::Scenario byz_scenario(const std::string& text) {
  core::Scenario s;
  s.seed = 4242;
  s.n_nodes = 10;
  s.n_maps = 5;
  s.n_reducers = 2;
  s.input_text = text;
  s.boinc_mr = true;
  s.time_limit = SimTime::hours(24);
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  // Warm trust quickly so the adaptive run exercises single-replica paths.
  s.project.reputation.min_consecutive_valid = 3;
  s.project.reputation.error_rate_decay = 0.8;
  return s;
}

/// Canonical digest per validated WU name.
std::map<std::string, common::Digest128> canonical_digests(
    const core::Cluster& c) {
  std::map<std::string, common::Digest128> out;
  c.project().database().for_each_workunit([&](const db::WorkUnitRecord& w) {
    if (w.canonical_found) out[w.name] = w.canonical_digest;
  });
  return out;
}

TEST(ReputationIntegration, CorruptDigestNeverCanonicalUnderByzantineMix) {
  const std::string text = corpus(120 * 1024, 31);

  // Ground truth: clean fleet, same seed — every digest is a deterministic
  // function of the input data, so these are the only honest answers.
  core::Scenario ref = byz_scenario(text);
  core::Cluster ref_cluster(ref);
  const auto ref_out = ref_cluster.run_job();
  ASSERT_TRUE(ref_out.metrics.completed);
  const auto truth = canonical_digests(ref_cluster);
  ASSERT_FALSE(truth.empty());

  for (const rep::PolicyMode mode :
       {rep::PolicyMode::kFixed, rep::PolicyMode::kAdaptive}) {
    SCOPED_TRACE(rep::to_string(mode));
    core::Scenario s = byz_scenario(text);
    s.byzantine = volunteer::ByzantineMix{0.10, 1.0};  // 10% always-corrupt
    s.project.reputation.mode = mode;
    core::Cluster cluster(s);
    const auto out = cluster.run_job();
    ASSERT_TRUE(out.metrics.completed);

    // The regression: no corrupted digest may ever be promoted canonical.
    int checked = 0;
    for (const auto& [name, digest] : canonical_digests(cluster)) {
      const auto it = truth.find(name);
      ASSERT_NE(it, truth.end()) << name;
      EXPECT_EQ(digest, it->second) << name;
      ++checked;
    }
    EXPECT_EQ(checked, static_cast<int>(truth.size()));
  }
}

TEST(ReputationIntegration, InconclusiveWorkUnitsGetEscalationReplicas) {
  // One always-corrupt host in a 2-of-2 quorum fleet: its replicas disagree
  // with the honest sibling, the validator marks the pair inconclusive, and
  // the transitioner must mint an extra replica until a quorum forms.
  const std::string text = corpus(60 * 1024, 57);
  core::Scenario s = byz_scenario(text);
  s.n_nodes = 5;
  s.error_probabilities = {1.0, 0, 0, 0, 0};
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);

  const db::Database& db = cluster.project().database();
  std::int64_t inconclusive = 0;  // per-host tally of tie-broken replicas
  db.for_each_host([&](const db::HostRecord& h) {
    inconclusive += h.results_inconclusive;
  });
  EXPECT_GT(inconclusive, 0);
  int escalated = 0;
  db.for_each_workunit([&](const db::WorkUnitRecord& w) {
    if (static_cast<int>(db.results_of(w.id).size()) > s.project.target_nresults)
      ++escalated;
  });
  EXPECT_GT(escalated, 0);
}

TEST(ReputationIntegration, WarmAdaptiveFleetCutsReplicationOverhead) {
  // Run a train of jobs on one fleet; by the last job every honest host has
  // earned trust, so adaptive replication should be near 1 result/WU while
  // fixed stays near 2. The acceptance bar is a >= 30% reduction.
  const auto overhead_of_last_job = [](rep::PolicyMode mode) {
    core::Scenario s;
    s.seed = 99;
    s.n_nodes = 8;
    s.n_maps = 8;
    s.n_reducers = 2;
    s.input_size = 8'000'000;
    s.boinc_mr = true;
    s.time_limit = SimTime::hours(200);
    s.project.reputation.mode = mode;
    s.project.reputation.min_consecutive_valid = 3;
    s.project.reputation.error_rate_decay = 0.8;
    core::Cluster cluster(s);
    MrJobId last;
    for (int j = 0; j < 4; ++j) {
      const auto out = cluster.run_job();
      EXPECT_TRUE(out.metrics.completed);
      last = out.job;
    }
    const db::Database& db = cluster.project().database();
    int wus = 0, results = 0;
    db.for_each_workunit([&](const db::WorkUnitRecord& w) {
      if (w.mr_job == last) ++wus;
    });
    db.for_each_result([&](const db::ResultRecord& r) {
      if (db.workunit(r.wu).mr_job == last) ++results;
    });
    EXPECT_GT(wus, 0);
    return static_cast<double>(results) / wus;
  };

  const double fixed = overhead_of_last_job(rep::PolicyMode::kFixed);
  const double adaptive = overhead_of_last_job(rep::PolicyMode::kAdaptive);
  EXPECT_GE(fixed, 2.0);
  EXPECT_LE(adaptive, 0.7 * fixed);
}

}  // namespace
}  // namespace vcmr
