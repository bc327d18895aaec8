// Churn and byzantine volunteers: runs the word-count job on an Internet
// volunteer pool (heterogeneous broadband hosts) with hosts leaving and
// rejoining, and a fraction of them corrupting results. Shows BOINC's
// defences at work: report deadlines re-replicate lost tasks, quorum
// validation rejects corrupted outputs, and BOINC-MR reducers fall back to
// the server mirror when a mapper peer is offline.

#include <cstdio>

#include "core/cluster.h"
#include "volunteer/byzantine.h"

int main(int argc, char** argv) {
  using namespace vcmr;
  common::LogConfig::instance().set_level(common::LogLevel::kOff);
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;

  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 30;
  s.n_maps = 30;
  s.n_reducers = 5;
  s.input_size = 200LL * 1000 * 1000;
  s.boinc_mr = true;
  s.time_limit = SimTime::hours(24);

  // Heterogeneous broadband volunteers instead of the Emulab testbed.
  common::Rng hostrng(seed);
  s.hosts = volunteer::internet_mix(s.n_nodes, hostrng);

  // 80% availability: ~48 min on, 12 min off on average.
  volunteer::ChurnConfig churn;
  churn.mean_on = SimTime::minutes(48);
  churn.mean_off = SimTime::minutes(12);
  s.churn = churn;

  // 15% of hosts corrupt 60% of their results.
  common::Rng byzrng(seed + 1);
  volunteer::ByzantineMix mix;
  mix.faulty_fraction = 0.15;
  mix.error_probability = 0.6;
  s.error_probabilities = volunteer::error_probabilities(s.n_nodes, mix, byzrng);

  // Tasks stuck on dead hosts should time out in minutes, not hours.
  s.project.delay_bound = SimTime::minutes(45);

  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();

  std::printf("churn study: 30 broadband volunteers, 80%% availability, "
              "15%% byzantine\n\n");
  std::printf("job %s in %.0f simulated seconds (%.1f h)\n",
              out.metrics.completed ? "COMPLETED" : "did not complete",
              out.metrics.total_seconds, out.metrics.total_seconds / 3600);

  const auto& db = cluster.project().database();
  int success = 0, invalid = 0, no_reply = 0, client_err = 0, abandoned = 0;
  db.for_each_result([&](const db::ResultRecord& r) {
    switch (r.outcome) {
      case db::Outcome::kSuccess: ++success; break;
      case db::Outcome::kValidateError: ++invalid; break;
      case db::Outcome::kNoReply: ++no_reply; break;
      case db::Outcome::kClientError: ++client_err; break;
      case db::Outcome::kAbandoned: ++abandoned; break;
      default: break;
    }
  });
  std::printf("\nresult outcomes: %d valid, %d corrupted (caught by quorum), "
              "%d lost to churn (re-replicated), %d client errors, "
              "%d abandoned\n",
              success, invalid, no_reply, client_err, abandoned);
  int wus_validated = 0;
  db.for_each_workunit([&](const db::WorkUnitRecord& wu) {
    if (wu.canonical_found) ++wus_validated;
  });
  // The validator's rows are the results it judged plus its inconclusive
  // quorum checks, so the checks are what the judged results leave over.
  const obs::MetricsRegistry& reg = cluster.metrics();
  const std::int64_t results_invalid =
      reg.counter_value("validator", "results_invalid");
  const std::int64_t inconclusive_checks =
      reg.counter_value("daemon", "rows_touched", {{"daemon", "validator"}}) -
      reg.counter_value("validator", "results_valid") - results_invalid;
  std::printf("validator: %d WUs validated, %lld invalid results, "
              "%lld inconclusive checks (tie-breaks issued)\n",
              wus_validated, static_cast<long long>(results_invalid),
              static_cast<long long>(inconclusive_checks));
  // Every result is a transitioner replica, and only its deadline pass
  // marks one no-reply.
  std::printf("transitioner: %zu results created (replication + retries), "
              "%d timed out\n",
              db.result_count(), no_reply);
  std::printf("inter-client: %lld successful peer fetches, %lld fell back to "
              "the server mirror (offline mappers)\n",
              static_cast<long long>(
                  reg.counter_value("interclient", "fetch_ok")),
              static_cast<long long>(out.server_fallbacks));
  return out.metrics.completed ? 0 : 1;
}
