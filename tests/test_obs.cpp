// Tests for the vcmr::obs telemetry subsystem: the shared JSON writer, the
// metrics registry, both exporters, the per-cluster timeline, and the
// end-to-end guarantees the subsystem makes — per-host backoff accounting
// that exposes the Fig. 4 straggler, and zero perturbation of simulation
// outcomes when telemetry is merely collected.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/json.h"
#include "core/cluster.h"
#include "json_checker.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "seed_pool.h"
#include "sim/trace.h"

namespace vcmr {
namespace {

using common::JsonWriter;
using obs::MetricsRegistry;
using obs::ScopedMetricsRegistry;

// --- JsonWriter (satellite 1: the hoisted bench JSON path) -----------------

TEST(JsonWriter, FormatMatchesHistoricalBenchRows) {
  // Byte-for-byte pin of the format bench_*.cpp rows have always used;
  // every bench row is written through this class.
  JsonWriter w;
  w.field("experiment", "E2")
      .field("seed", static_cast<std::int64_t>(3))
      .field("ratio", 0.5)
      .field("ok", true);
  EXPECT_EQ(w.str(),
            "{\"experiment\": \"E2\", \"seed\": 3, \"ratio\": 0.5, "
            "\"ok\": true}");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
  JsonWriter w;
  w.field("k", std::string("a\"b\\c\nd"));
  EXPECT_EQ(w.str(), "{\"k\": \"a\\\"b\\\\c\\u000ad\"}");
  EXPECT_TRUE(JsonChecker(w.str()).valid());
}

TEST(JsonWriter, FieldJsonEmbedsRawValues) {
  JsonWriter w;
  w.field("n", 1).field_json("nested", "{\"x\": [1, 2]}");
  EXPECT_EQ(w.str(), "{\"n\": 1, \"nested\": {\"x\": [1, 2]}}");
  EXPECT_TRUE(JsonChecker(w.str()).valid());
}

TEST(JsonWriter, DoublesUseSixSignificantDigits) {
  JsonWriter w;
  w.field("v", 205.092772);
  EXPECT_EQ(w.str(), "{\"v\": 205.093}");
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CountersAccumulate) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("c", "hits").add();
  reg.counter("c", "hits").add(4);
  EXPECT_EQ(reg.counter("c", "hits").value(), 5);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(Metrics, LabelOrderDoesNotSplitMetrics) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("c", "n", {{"a", "1"}, {"b", "2"}}).add();
  reg.counter("c", "n", {{"b", "2"}, {"a", "1"}}).add();
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counter_total("c", "n"), 2);
}

TEST(Metrics, CounterTotalSumsAcrossLabelSets) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("client", "rpcs", {{"host", "host1"}}).add(3);
  reg.counter("client", "rpcs", {{"host", "host2"}}).add(4);
  reg.counter("client", "other").add(100);
  EXPECT_EQ(reg.counter_total("client", "rpcs"), 7);
  EXPECT_EQ(reg.counter_total("client", "absent"), 0);
}

TEST(Metrics, HistogramBucketsObservations) {
  ScopedMetricsRegistry scope;
  auto& h = MetricsRegistry::instance().histogram("c", "lat", {10, 100});
  h.observe(5);     // <= 10
  h.observe(10);    // boundary counts in the first bucket
  h.observe(50);    // <= 100
  h.observe(1000);  // overflow
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2);
  EXPECT_EQ(h.buckets()[1], 1);
  EXPECT_EQ(h.buckets()[2], 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1065.0);
}

TEST(Metrics, HistogramBoundsFixedAtFirstRegistration) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  auto& h1 = reg.histogram("c", "lat", {1, 2});
  auto& h2 = reg.histogram("c", "lat", {5, 6, 7});  // ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds(), (std::vector<double>{1, 2}));
}

TEST(Metrics, RejectsUnsortedHistogramBounds) {
  ScopedMetricsRegistry scope;
  EXPECT_THROW(
      MetricsRegistry::instance().histogram("c", "bad", {5, 1}), Error);
}

TEST(Metrics, ScopedRegistryIsolatesAndRestores) {
  auto& outer = MetricsRegistry::instance();
  const std::int64_t outer_before = outer.counter_total("t", "x");
  {
    ScopedMetricsRegistry scope;
    EXPECT_NE(&MetricsRegistry::instance(), &outer);
    MetricsRegistry::instance().counter("t", "x").add(42);
    EXPECT_EQ(MetricsRegistry::instance().counter_total("t", "x"), 42);
  }
  EXPECT_EQ(&MetricsRegistry::instance(), &outer);
  EXPECT_EQ(outer.counter_total("t", "x"), outer_before);
}

// The SeedPool isolation property: the current-registry pointer is
// thread-local, so two workers under their own scoped registries bumping
// the *same-named* counter concurrently never observe each other, and the
// shared root is untouched.
TEST(Metrics, RegistryIsolationAcrossThreads) {
  auto& root = MetricsRegistry::instance();
  const std::int64_t root_before = root.counter_total("iso", "c");
  constexpr int kIters = 5000;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  const auto worker = [&](std::int64_t step) {
    ScopedMetricsRegistry scope;
    while (!go.load()) {
    }
    auto& c = MetricsRegistry::instance().counter("iso", "c");
    for (int i = 0; i < kIters; ++i) {
      c.add(step);
      // Only this thread's increments are ever visible here.
      if (MetricsRegistry::instance().counter_total("iso", "c") !=
          step * (i + 1)) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread a(worker, 1), b(worker, 1000);
  go.store(true);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(root.counter_total("iso", "c"), root_before);
}

TEST(Metrics, NestedScopedRegistriesRestoreInOrder) {
  auto& root = MetricsRegistry::instance();
  {
    ScopedMetricsRegistry outer;
    MetricsRegistry* outer_reg = &MetricsRegistry::instance();
    {
      ScopedMetricsRegistry inner;
      EXPECT_NE(&MetricsRegistry::instance(), outer_reg);
      MetricsRegistry::instance().counter("nest", "c").add(1);
    }
    EXPECT_EQ(&MetricsRegistry::instance(), outer_reg);
    EXPECT_EQ(outer_reg->counter_total("nest", "c"), 0);
  }
  EXPECT_EQ(&MetricsRegistry::instance(), &root);
}

TEST(Metrics, SpawnedThreadStartsAtRootRegistry) {
  auto& root = MetricsRegistry::instance();
  ScopedMetricsRegistry scope;  // live on the spawning thread only
  MetricsRegistry* seen = nullptr;
  std::thread([&] { seen = &MetricsRegistry::instance(); }).join();
  EXPECT_EQ(seen, &root);
  EXPECT_NE(seen, &MetricsRegistry::instance());
}

TEST(Metrics, MergeFromAddsCountersGaugesAndHistograms) {
  MetricsRegistry a, b;
  a.counter("m", "c").add(3);
  b.counter("m", "c").add(4);
  b.counter("m", "only_b").add(1);
  a.gauge("m", "g").add(1.5);
  b.gauge("m", "g").add(2.0);
  a.histogram("m", "h", {1, 10}).observe(0.5);
  b.histogram("m", "h", {1, 10}).observe(5);
  b.histogram("m", "h", {1, 10}).observe(100);
  a.merge_from(b);
  EXPECT_EQ(a.counter_total("m", "c"), 7);
  EXPECT_EQ(a.counter_total("m", "only_b"), 1);
  EXPECT_DOUBLE_EQ(a.gauge("m", "g").value(), 3.5);
  const auto& h = a.histogram("m", "h", {1, 10});
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);
  EXPECT_EQ(h.buckets(), (std::vector<std::int64_t>{1, 1, 1}));
  // b is untouched.
  EXPECT_EQ(b.counter_total("m", "c"), 4);
}

TEST(Metrics, MergeFromIsOrderIndependentForIntegerAggregates) {
  MetricsRegistry parts[3];
  for (int i = 0; i < 3; ++i) {
    parts[i].counter("m", "c").add(i + 1);
    parts[i].histogram("m", "h", {2}).observe(i);
  }
  MetricsRegistry fwd, rev;
  for (int i = 0; i < 3; ++i) fwd.merge_from(parts[i]);
  for (int i = 2; i >= 0; --i) rev.merge_from(parts[i]);
  EXPECT_EQ(fwd.counter_total("m", "c"), rev.counter_total("m", "c"));
  EXPECT_EQ(fwd.histogram("m", "h", {2}).buckets(),
            rev.histogram("m", "h", {2}).buckets());
}

TEST(Metrics, MergeFromRejectsMismatchedHistogramBounds) {
  MetricsRegistry a, b;
  a.histogram("m", "h", {1, 2}).observe(1);
  b.histogram("m", "h", {1, 3}).observe(1);
  EXPECT_THROW(a.merge_from(b), Error);
}

// --- exporters -------------------------------------------------------------

TEST(Export, MetricsJsonIsValidAndComplete) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("scheduler", "rpcs").add(34);
  reg.gauge("job", "total_seconds", {{"job", "1"}}).set(205.093);
  reg.histogram("client", "backoff_seconds", {30, 60}, {{"host", "host1"}})
      .observe(45);

  const std::string json = obs::metrics_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"rpcs\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 34"), std::string::npos);
  EXPECT_NE(json.find("\"host\": \"host1\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [0, 1, 0]"), std::string::npos);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  obs::Histogram h({30, 60, 120});
  EXPECT_EQ(h.quantile(0.5), 0);  // no observations
  h.observe(10);
  h.observe(45);
  h.observe(45);
  h.observe(100);
  // rank 2 lands in [30,60) after 1 earlier observation: halfway through.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 45);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 108);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 117.6);
  // Overflow clamps to the last bound.
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 120);
}

TEST(Histogram, OverflowBucketClampsQuantilesToLastBound) {
  // The overflow bucket has no upper edge, so quantile() clamps any rank
  // landing there to bounds_.back() and under-reports the true tail. The
  // clamp is by design (fixed-bucket histograms keep no raw samples); the
  // defence is choosing bounds that cover the realistic range, which the
  // backoff test below pins.
  obs::Histogram h({10, 20});
  h.observe(5000);
  h.observe(9000);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 20);  // true median is 5000+
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 20);
  EXPECT_DOUBLE_EQ(h.sum(), 14000.0);  // sum still sees the real values
}

TEST(Histogram, BackoffBoundsCoverConfigurableCap) {
  // client/backoff_seconds historically topped out at 600 s — exactly the
  // *default* backoff_max — so any run with a raised cap pushed every long
  // draw into the overflow bucket and quantile() clamped p95/p99 to 600.
  // The widened bounds keep one resolvable decade above the default cap.
  const std::vector<double> bounds = client::backoff_histogram_bounds();
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_EQ(bounds.back(), 3600);
  EXPECT_GT(bounds.back(),
            client::ClientConfig().backoff_max.as_seconds() * 2);

  obs::Histogram h(bounds);
  h.observe(1800);  // a draw under a raised (1-hour) cap...
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2400);  // ...resolves within bounds
  h.observe(7200);  // beyond every bound: the documented clamp kicks in
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3600);
}

TEST(Export, HistogramPercentileFormatPin) {
  // Format pin: every histogram object carries p50/p95/p99 summaries in
  // this exact rendering (%.6g numbers, after count and sum). Downstream
  // dashboards parse these fields — change them deliberately or not at all.
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  auto& h = reg.histogram("client", "backoff_seconds", {30, 60, 120});
  h.observe(10);
  h.observe(45);
  h.observe(45);
  h.observe(100);
  const std::string json = obs::metrics_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"count\": 4, \"sum\": 200, "
                      "\"p50\": 45, \"p95\": 108, \"p99\": 117.6}"),
            std::string::npos)
      << json;
}

TEST(Export, ChromeTraceRendersSpansAndPoints) {
  sim::TraceRecorder tr;
  const std::size_t tok =
      tr.begin_span(SimTime::seconds(1), "host1", "compute", "r0");
  tr.end_span(tok, SimTime::seconds(3));
  tr.point(SimTime::seconds(2), "client", "host2", "report");
  tr.point(SimTime::seconds(4), "scheduler", "scheduler", "resend_lost",
           "wu0_r1");

  const std::string json = obs::chrome_trace_json(tr);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete span: ph X with micro ts/dur.
  EXPECT_NE(json.find("\"ph\": \"X\", \"ts\": 1000000, \"dur\": 2000000"),
            std::string::npos);
  // Instants carry the scope flag chrome://tracing requires.
  EXPECT_NE(json.find("\"ph\": \"i\", \"s\": \"t\""), std::string::npos);
  // Per-actor thread naming, first-seen order: host1=0, host2=1, then the
  // point-only actor "scheduler" gets the next tid.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"host1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"resend_lost\""), std::string::npos);
  // Every instant names its component; the detail rides along when set.
  EXPECT_NE(json.find("\"args\": {\"component\": \"client\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"component\": \"scheduler\", "
                      "\"detail\": \"wu0_r1\"}"),
            std::string::npos);
}

TEST(Export, ChromeTraceDropsUnclosedSpans) {
  sim::TraceRecorder tr;
  tr.begin_span(SimTime::seconds(1), "host1", "compute");  // never closed
  const std::string json = obs::chrome_trace_json(tr);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Export, ChromeTraceEventsSortedByTimestamp) {
  sim::TraceRecorder tr;
  tr.point(SimTime::seconds(9), "c", "a", "late");
  tr.point(SimTime::seconds(1), "c", "b", "early");
  const std::string json = obs::chrome_trace_json(tr);
  EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

// --- end-to-end ------------------------------------------------------------

core::Scenario fig4_scenario(std::uint64_t seed = 3) {
  // The Fig. 4 experiment (bench_fig4_timeline): 15 plain-BOINC nodes, one
  // map WU per node replicated twice, 1 GB input. One node's report gets
  // stuck behind the exponential backoff and dominates the map-phase tail.
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 15;
  s.n_maps = 15;
  s.n_reducers = 3;
  s.input_size = 1000LL * 1000 * 1000;
  s.boinc_mr = false;
  s.record_trace = true;
  return s;
}

TEST(ObsIntegration, Fig4StragglerDominatesBackoffHistogram) {
  ScopedMetricsRegistry scope;
  // Seed 36 is a stark instance of the pathology: the straggler's report is
  // held back ~236 s by a single backoff draw, roughly double the worst
  // report delay of any other host.
  core::Cluster cluster(fig4_scenario(36));
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);

  // Identify the straggler exactly as bench_fig4_timeline does: the host
  // whose upload→report gap is largest.
  std::map<std::string, double> uploaded_at;
  for (const auto& p : cluster.trace().points()) {
    if (p.label == "uploaded") uploaded_at[p.detail] = p.at.as_seconds();
  }
  double max_delay = 0;
  double straggler_upload = 0;
  double straggler_report = 0;
  std::string straggler;
  std::map<std::string, double> host_delay;  // worst upload→report gap each
  for (const auto& t : out.metrics.map_tasks) {
    const auto it = uploaded_at.find(t.result_name);
    const double up =
        it != uploaded_at.end() ? it->second : t.received_seconds;
    const double delay = t.received_seconds - up;
    host_delay[t.host_name] = std::max(host_delay[t.host_name], delay);
    if (delay > max_delay) {
      max_delay = delay;
      straggler = t.host_name;
      straggler_upload = up;
      straggler_report = t.received_seconds;
    }
  }
  ASSERT_FALSE(straggler.empty());
  EXPECT_GT(max_delay, 180.0);  // the pathology is present at this seed

  // The telemetry exposes the cause, not just the symptom: the straggler's
  // result sat finished while a backoff drawn *before* the upload completed
  // kept the client away from the scheduler.  Each backoff span opens at
  // its draw and carries it as "<why> <seconds>", so we can find the draw
  // whose window [t, t + delay] covers the whole upload→report gap.
  double covering_draw = 0;
  for (const auto& span : cluster.trace().spans_for(straggler)) {
    if (span.label != "backoff") continue;
    const std::size_t sp = span.detail.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << span.detail;
    const double t = span.begin.as_seconds();
    const double d = std::stod(span.detail.substr(sp + 1));
    if (t <= straggler_upload && t + d >= straggler_report - 0.5) {
      covering_draw = std::max(covering_draw, d);
    }
  }
  // One recorded draw explains the entire report delay...
  EXPECT_GE(covering_draw, max_delay);
  // ...and it visibly dominates: that single draw is at least 1.5x the
  // *total* report delay of every other host in the run.
  for (const auto& [host, delay] : host_delay) {
    if (host == straggler) continue;
    EXPECT_GT(covering_draw, 1.5 * delay) << host;
  }

  // The per-host histograms saw every one of those draws too: the
  // straggler's histogram contains the long (> 120 s) covering draw and
  // its total accounts for at least that much backoff.
  const auto& reg = MetricsRegistry::instance();
  bool found_straggler_hist = false;
  for (const auto& [key, h] : reg.histograms()) {
    if (key.component != "client" || key.name != "backoff_seconds") continue;
    ASSERT_EQ(key.labels.size(), 1u);
    if (key.labels[0].second != straggler) continue;
    found_straggler_hist = true;
    const auto& buckets = h.buckets();  // client::backoff_histogram_bounds()
    std::int64_t long_draws = 0;
    for (std::size_t i = 3; i < buckets.size(); ++i) long_draws += buckets[i];
    EXPECT_GT(long_draws, 0);
    EXPECT_GE(h.sum() + 1e-6, covering_draw);
  }
  EXPECT_TRUE(found_straggler_hist);

  // RunOutcome reads the registry the exporters see, and the wire-byte
  // counters saw real traffic in both directions.
  EXPECT_EQ(reg.counter_total("scheduler", "rpcs"), out.scheduler_rpcs);
  EXPECT_GT(reg.counter_total("scheduler", "wire_bytes_in"), 0);
  EXPECT_GT(reg.counter_total("scheduler", "wire_bytes_out"), 0);
}

TEST(ObsIntegration, CollectingTelemetryDoesNotPerturbTheRun) {
  core::Scenario s = fig4_scenario();
  s.record_trace = false;

  double base_total = 0;
  Bytes base_sent = 0;
  std::int64_t base_rpcs = 0;
  {
    ScopedMetricsRegistry scope;
    core::Cluster cluster(s);
    const core::RunOutcome out = cluster.run_job();
    base_total = out.metrics.total_seconds;
    base_sent = out.server_bytes_sent;
    base_rpcs = out.scheduler_rpcs;
  }
  {
    // Same scenario recording its timeline: identical outcome.
    ScopedMetricsRegistry scope;
    s.record_trace = true;
    core::Cluster cluster(s);
    const core::RunOutcome out = cluster.run_job();
    EXPECT_EQ(out.metrics.total_seconds, base_total);
    EXPECT_EQ(out.server_bytes_sent, base_sent);
    EXPECT_EQ(out.scheduler_rpcs, base_rpcs);
    EXPECT_FALSE(cluster.trace().points().empty());
  }
}

TEST(ObsIntegration, MetricsJsonFromRealRunIsValid) {
  ScopedMetricsRegistry scope;
  core::Scenario s = fig4_scenario();
  core::Cluster cluster(s);
  (void)cluster.run_job();
  const std::string json =
      obs::metrics_json(MetricsRegistry::instance());
  EXPECT_TRUE(JsonChecker(json).valid());
  const std::string trace_json = obs::chrome_trace_json(cluster.trace());
  EXPECT_TRUE(JsonChecker(trace_json).valid());
}


// --- ClusterMetrics: each Cluster owns its registry ------------------------

core::Scenario small_mr_scenario() {
  core::Scenario s;
  s.seed = 11;
  s.n_nodes = 8;
  s.n_maps = 6;
  s.n_reducers = 2;
  s.input_size = 60LL * 1000 * 1000;
  s.boinc_mr = true;
  return s;
}

/// Every counter a RunOutcome carries, in declaration order.
std::vector<std::int64_t> outcome_counters(const core::RunOutcome& o) {
  return {o.server_bytes_sent,   o.server_bytes_received,
          o.interclient_bytes,   o.local_read_bytes,
          o.scheduler_rpcs,      o.backoffs,
          o.server_fallbacks,    o.peer_fetch_attempts,
          o.store_bytes,         o.store_fetches,
          o.store_misses,        o.results_lost,
          o.fetch_failures_reported, o.maps_invalidated};
}

TEST(ClusterMetrics, SequentialClustersCountIntoTheirOwnRegistries) {
  ScopedMetricsRegistry scope;
  std::vector<std::vector<std::int64_t>> runs;
  for (int run = 0; run < 2; ++run) {
    core::Cluster cluster(small_mr_scenario());
    EXPECT_EQ(&MetricsRegistry::instance(), &cluster.metrics());
    const core::RunOutcome out = cluster.run_job();
    ASSERT_TRUE(out.metrics.completed);
    const MetricsRegistry& reg = cluster.metrics();
    EXPECT_EQ(out.scheduler_rpcs, reg.counter_value("scheduler", "rpcs"));
    EXPECT_EQ(out.backoffs, reg.histogram_count("client", "backoff_seconds"));
    EXPECT_EQ(out.server_fallbacks,
              reg.counter_value("client", "server_fallbacks"));
    EXPECT_EQ(out.peer_fetch_attempts,
              reg.counter_value("interclient", "fetch_attempts"));
    EXPECT_EQ(out.interclient_bytes,
              reg.counter_value("interclient", "bytes_fetched"));
    EXPECT_EQ(out.results_lost, reg.counter_value("scheduler", "results_lost"));
    EXPECT_GT(out.scheduler_rpcs, 0);
    EXPECT_GT(out.interclient_bytes, 0);
    // job_outcome's roll-up gauges land in the cluster's registry too.
    const obs::Labels job = {{"job", std::to_string(out.job.value())}};
    EXPECT_EQ(reg.gauges().at({"job", "backoffs", job}).value(),
              static_cast<double>(out.backoffs));
    runs.push_back(outcome_counters(out));
  }
  EXPECT_EQ(&MetricsRegistry::instance(), &scope.registry());
  // A shared registry would have doubled the second run's counts.
  EXPECT_EQ(runs[0], runs[1]);
  // None of the clusters' counts reached the enclosing registry.
  EXPECT_TRUE(scope.registry().counters().empty());
  EXPECT_TRUE(scope.registry().gauges().empty());
  EXPECT_TRUE(scope.registry().histograms().empty());
}

TEST(ClusterMetrics, OnlyTheNewestRegistryMayRun) {
  core::Scenario s = small_mr_scenario();
  wf::NodeSpec node;
  node.job.name = "only";
  node.job.app = "word_count";
  node.job.n_maps = 2;
  node.job.n_reducers = 2;
  node.job.input_text = "some input text";
  s.workflow.push_back(node);

  core::Cluster a(s);
  {
    core::Cluster b(s);
    EXPECT_THROW(a.run_job(), Error);
    EXPECT_THROW(a.run_jobs({server::MrJobSpec{}}), Error);
    EXPECT_THROW(a.run_workflow(), Error);
    EXPECT_TRUE(b.run_job().metrics.completed);
  }
  {
    // A plain scope opened over a live cluster blocks it the same way.
    ScopedMetricsRegistry scope;
    EXPECT_THROW(a.run_job(), Error);
  }
  // Once the newer registries are gone the cluster is current again.
  EXPECT_EQ(&MetricsRegistry::instance(), &a.metrics());
  EXPECT_TRUE(a.run_workflow().completed);
}

TEST(ClusterMetricsDeathTest, OutOfOrderTeardownAborts) {
  const core::Scenario s = small_mr_scenario();
  // Freeing the older of two live clusters would leave the thread's
  // registry pointer aimed at freed memory once the newer one goes.
  EXPECT_DEATH(
      {
        auto a = std::make_unique<core::Cluster>(s);
        auto b = std::make_unique<core::Cluster>(s);
        a.reset();
      },
      "out of LIFO order");
  EXPECT_DEATH(
      {
        auto outer = std::make_unique<ScopedMetricsRegistry>();
        ScopedMetricsRegistry inner;
        outer.reset();
      },
      "out of LIFO order");
}

// --- Timeline: one recorder per Cluster -------------------------------------

/// Every point and closed span of a timeline, one line each, in record order.
std::vector<std::string> timeline_rows(const sim::TraceRecorder& trace) {
  std::vector<std::string> rows;
  for (const sim::TracePoint& p : trace.points()) {
    rows.push_back(p.at.str() + " " + p.component + " " + p.actor + " " +
                   p.label + " " + p.detail);
  }
  for (const sim::TraceSpan& sp : trace.spans()) {
    rows.push_back(sp.begin.str() + ".." + sp.end.str() + " " + sp.actor +
                   " " + sp.label + " " + sp.detail);
  }
  return rows;
}

/// small_mr_scenario, traced, with a crash/restart and lossy RPCs so client,
/// scheduler, daemon, fault and cluster points all land on the timeline.
core::Scenario traced_fault_scenario(std::uint64_t seed) {
  core::Scenario s = small_mr_scenario();
  s.seed = seed;
  s.record_trace = true;
  fault::ClientCrash c;
  c.host = 1;
  c.at = SimTime::seconds(20);
  c.restart_at = SimTime::seconds(60);
  s.faults.crashes.push_back(c);
  s.faults.rpc_loss_rate = 0.1;
  return s;
}

TEST(Timeline, PoolWorkersRecordTheSerialTimeline) {
  // Each cluster records into its own recorder, reached through its own
  // simulation: clusters run concurrently on pool workers record exactly
  // what the same clusters record one after another on this thread.
  constexpr int kTasks = 4;
  const auto run = [](int i) {
    core::Cluster cluster(traced_fault_scenario(100 + i));
    const bool completed = cluster.run_job().metrics.completed;
    std::vector<std::string> rows = timeline_rows(cluster.trace());
    rows.push_back(completed ? "completed" : "not completed");
    return rows;
  };
  std::vector<std::vector<std::string>> serial;
  for (int i = 0; i < kTasks; ++i) serial.push_back(run(i));
  const auto pooled = bench::SeedPool(kTasks).map(kTasks, run);
  ASSERT_EQ(pooled.size(), serial.size());
  for (int i = 0; i < kTasks; ++i) {
    const auto& rows = serial[static_cast<std::size_t>(i)];
    EXPECT_EQ(rows.back(), "completed") << "task " << i;
    const auto has = [&rows](const std::string& what) {
      return std::any_of(rows.begin(), rows.end(), [&](const std::string& r) {
        return r.find(what) != std::string::npos;
      });
    };
    EXPECT_TRUE(has(" fault fault crash ")) << "task " << i;
    EXPECT_TRUE(has(" daemon server ")) << "task " << i;
    EXPECT_TRUE(has(" cluster cluster job_completed ")) << "task " << i;
    EXPECT_EQ(pooled[static_cast<std::size_t>(i)], rows) << "task " << i;
  }
}

/// Host name of client `i` (its timeline's actor).
std::string host_name(core::Cluster& cluster, std::size_t i) {
  return cluster.project()
      .database()
      .host(cluster.client(i).host_id())
      .name;
}

TEST(Timeline, CrashWhileOfflineClosesTheComputeSpanOnce) {
  core::Scenario s = small_mr_scenario();
  s.record_trace = true;
  // An undisturbed run shows when client 0 first computes.
  std::string host;
  std::optional<sim::TraceSpan> compute;
  {
    core::Cluster probe(s);
    ASSERT_TRUE(probe.run_job().metrics.completed);
    host = host_name(probe, 0);
    for (const sim::TraceSpan& sp : probe.trace().spans_for(host)) {
      if (sp.label == "compute") {
        compute = sp;
        break;
      }
    }
  }
  ASSERT_TRUE(compute.has_value());
  const SimTime mid = compute->begin + (compute->end - compute->begin) * 0.5;
  ASSERT_GT(mid, compute->begin);

  // Churn suspends the task (closing its compute span), then the client
  // crashes while still offline: the crash must not close that span again.
  core::Cluster cluster(s);
  client::Client& c = cluster.client(0);
  cluster.simulation().at(mid, [&c] { c.set_online(false); });
  cluster.simulation().at(mid + SimTime::seconds(1), [&c] { c.crash(); });
  cluster.simulation().at(mid + SimTime::seconds(30), [&c] { c.restart(); });
  const core::RunOutcome out = cluster.run_job();
  EXPECT_TRUE(out.metrics.completed);

  bool suspended = false;
  for (const sim::TraceSpan& sp : cluster.trace().spans_for(host)) {
    if (sp.label == "compute" && sp.begin == compute->begin) {
      EXPECT_EQ(sp.end.as_seconds(), mid.as_seconds());
      suspended = true;
    }
  }
  EXPECT_TRUE(suspended);
}

TEST(Timeline, CrashClosesTheBackoffSpanAtTheCrash) {
  core::Scenario s = small_mr_scenario();
  s.record_trace = true;
  // An undisturbed run shows a long backoff some client sits in.
  std::size_t victim = 0;
  std::optional<sim::TraceSpan> backoff;
  {
    core::Cluster probe(s);
    ASSERT_TRUE(probe.run_job().metrics.completed);
    for (std::size_t i = 0; i < probe.n_clients() && !backoff; ++i) {
      for (const sim::TraceSpan& sp :
           probe.trace().spans_for(host_name(probe, i))) {
        if (sp.label == "backoff" &&
            sp.end - sp.begin > SimTime::seconds(10)) {
          victim = i;
          backoff = sp;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(backoff.has_value());
  const SimTime mid = backoff->begin + (backoff->end - backoff->begin) * 0.5;

  // The client crashes inside that backoff and restarts well after it
  // would have ended: the span ends at the crash, not at the first RPC
  // after the restart.
  core::Cluster cluster(s);
  client::Client& c = cluster.client(victim);
  cluster.simulation().at(mid, [&c] { c.crash(); });
  cluster.simulation().at(backoff->end + SimTime::seconds(30),
                          [&c] { c.restart(); });
  ASSERT_TRUE(cluster.run_job().metrics.completed);

  const std::string host = host_name(cluster, victim);
  bool closed_at_crash = false;
  for (const sim::TraceSpan& sp : cluster.trace().spans_for(host)) {
    if (sp.label == "backoff" && sp.begin == backoff->begin) {
      EXPECT_EQ(sp.end.as_seconds(), mid.as_seconds()) << sp.detail;
      EXPECT_EQ(sp.detail, backoff->detail);
      closed_at_crash = true;
    }
  }
  EXPECT_TRUE(closed_at_crash);
  bool crash_point = false;
  for (const sim::TracePoint& p : cluster.trace().points_for(host)) {
    crash_point = crash_point || (p.label == "crash" && p.at == mid);
  }
  EXPECT_TRUE(crash_point);
}

}  // namespace
}  // namespace vcmr
