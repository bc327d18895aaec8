// Tests for the streaming telemetry exporter (obs::MetricsStreamer) and its
// scheduling primitive (sim::PeriodicTask): the sample-row schema, the
// zero-perturbation guarantee against the golden no-fault run, incremental
// flushing (a killed run leaves a parseable prefix), and the Chrome-trace
// "ph":"C" counter-track rendering.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "json_checker.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace vcmr {
namespace {

using obs::MetricsRegistry;
using obs::MetricsStreamer;
using obs::ScopedMetricsRegistry;

// --- PeriodicTask ----------------------------------------------------------

TEST(PeriodicTask, FiresEveryPeriodUntilCancelled) {
  sim::Simulation sim;
  int fired = 0;
  std::vector<double> at;
  sim::PeriodicTask task(sim, SimTime::seconds(5), [&] {
    ++fired;
    at.push_back(sim.now().as_seconds());
  });
  sim.run(SimTime::seconds(17));
  EXPECT_EQ(fired, 3);  // t = 5, 10, 15
  EXPECT_EQ(task.fired(), 3);
  EXPECT_EQ(at, (std::vector<double>{5, 10, 15}));

  task.cancel();
  sim.run(SimTime::seconds(1000));
  EXPECT_EQ(fired, 3);  // cancel stops future firings
}

TEST(PeriodicTask, CancelFromInsideCallbackStopsRearming) {
  sim::Simulation sim;
  int fired = 0;
  sim::PeriodicTask task(sim, SimTime::seconds(1), [&] {
    ++fired;
    if (fired == 2) task.cancel();
  });
  sim.run(SimTime::seconds(100));
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.idle());  // nothing left pending after self-cancel
}

TEST(PeriodicTask, RejectsNonPositivePeriod) {
  sim::Simulation sim;
  EXPECT_THROW(sim::PeriodicTask(sim, SimTime::zero(), [] {}), Error);
}

// --- sample-row schema -----------------------------------------------------

TEST(StreamSample, RowSchemaPin) {
  // Byte-for-byte pin of one stream row rendered from fixed inputs. The CI
  // telemetry smoke job and any dashboard tailing the file parse exactly
  // this shape — change it deliberately or not at all.
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("scheduler", "rpcs").add(34);
  reg.gauge("job", "total_seconds", {{"job", "1"}}).set(205.093);
  auto& h = reg.histogram("client", "backoff_seconds", {30, 60, 120});
  h.observe(10);
  h.observe(45);
  h.observe(45);
  h.observe(100);

  const std::string row = obs::stream_sample_json(
      reg, /*sim_s=*/60, /*wall_s=*/1.5, /*events_executed=*/455,
      /*events_per_sec=*/300.5, /*peak_rss_bytes=*/1048576,
      {{"db/ready_results", 3}});
  EXPECT_EQ(row,
            "{\"sim_s\": 60, \"wall_s\": 1.5, \"events_executed\": 455, "
            "\"events_per_sec\": 300.5, \"peak_rss_bytes\": 1048576, "
            "\"probes\": {\"db/ready_results\": 3}, "
            "\"counters\": [{\"component\": \"scheduler\", \"name\": "
            "\"rpcs\", \"labels\": {}, \"value\": 34}], "
            "\"gauges\": [{\"component\": \"job\", \"name\": "
            "\"total_seconds\", \"labels\": {\"job\": \"1\"}, "
            "\"value\": 205.093}], "
            "\"histograms\": [{\"component\": \"client\", \"name\": "
            "\"backoff_seconds\", \"labels\": {}, \"count\": 4, "
            "\"sum\": 200, \"p50\": 45, \"p95\": 108, \"p99\": 117.6}]}");
  EXPECT_TRUE(JsonChecker(row).valid());
}

// --- streamer on a live simulation -----------------------------------------

/// Lines of a JSON-lines buffer.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

/// Extracts the leading "sim_s" value of one row.
double sim_s_of(const std::string& row) {
  const std::string key = "\"sim_s\": ";
  const std::size_t pos = row.find(key);
  EXPECT_NE(pos, std::string::npos) << row;
  return std::stod(row.substr(pos + key.size()));
}

TEST(Streamer, SamplesArriveInSimTimeOrderAndFlushIncrementally) {
  ScopedMetricsRegistry scope;
  sim::Simulation sim;
  std::ostringstream out;
  MetricsStreamer::Options opt;
  opt.period = SimTime::seconds(10);
  MetricsStreamer streamer(sim, out, opt);
  streamer.add_probe("depth", [] { return 7.0; });

  sim.run(SimTime::seconds(35));
  // Rows are flushed per tick: all three are readable before finish().
  EXPECT_EQ(streamer.samples(), 3);
  EXPECT_EQ(lines_of(out.str()).size(), 3u);

  streamer.finish();
  const std::vector<std::string> rows = lines_of(out.str());
  ASSERT_EQ(rows.size(), 4u);  // three ticks + the finish() row
  double prev = -1;
  for (const std::string& row : rows) {
    EXPECT_TRUE(JsonChecker(row).valid()) << row;
    EXPECT_NE(row.find("\"depth\": 7"), std::string::npos);
    const double s = sim_s_of(row);
    EXPECT_GE(s, prev);  // non-decreasing sim time
    prev = s;
  }
  EXPECT_EQ(sim_s_of(rows[0]), 10);
  EXPECT_EQ(sim_s_of(rows[2]), 30);
}

TEST(Streamer, FinishIsIdempotentAndEmitsEvenWithoutTicks) {
  ScopedMetricsRegistry scope;
  sim::Simulation sim;
  std::ostringstream out;
  MetricsStreamer streamer(sim, out);  // default 60 s period, clock at 0
  streamer.finish();
  streamer.finish();
  EXPECT_EQ(streamer.samples(), 1);  // one final row, once
  EXPECT_EQ(lines_of(out.str()).size(), 1u);
}

TEST(Streamer, KilledRunLeavesParseablePrefixOnDisk) {
  // Model a killed run: rows go to a real file, the process "dies" (the
  // streamer is destroyed without finish()), and the file must still hold
  // every row written up to the last tick, each one valid JSON.
  const char* path = "test_stream_killed.jsonl";
  {
    ScopedMetricsRegistry scope;
    MetricsRegistry::instance().counter("c", "n").add(1);
    sim::Simulation sim;
    std::ofstream out(path);
    MetricsStreamer::Options opt;
    opt.period = SimTime::seconds(10);
    MetricsStreamer streamer(sim, out, opt);
    sim.run_until([&] { return streamer.samples() >= 2; });
    EXPECT_EQ(streamer.samples(), 2);
  }  // no finish(): destructor only cancels the pending tick

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++n;
  }
  EXPECT_EQ(n, 2);
  std::remove(path);
}

// --- zero perturbation against the golden run ------------------------------

core::Scenario golden_scenario() {
  // The no-fault golden pin from tests/test_fault.cpp: seed 11, 8 emulab
  // nodes, 6 maps, 2 reducers, 60 MB, BOINC-MR.
  core::Scenario s;
  s.seed = 11;
  s.n_nodes = 8;
  s.n_maps = 6;
  s.n_reducers = 2;
  s.input_size = 60LL * 1000 * 1000;
  s.boinc_mr = true;
  return s;
}

TEST(Streamer, GoldenRunOutcomesAreBitIdenticalWithStreaming) {
  // Baseline without a streamer re-pins the golden numbers...
  {
    ScopedMetricsRegistry scope;
    core::Cluster cluster(golden_scenario());
    const core::RunOutcome out = cluster.run_job();
    ASSERT_TRUE(out.metrics.completed);
    EXPECT_EQ(out.metrics.total_seconds, 205.092772);
    EXPECT_EQ(out.server_bytes_sent, 120025909);
    EXPECT_EQ(cluster.simulation().events_executed(), 455u);
  }

  // ...and the streamed run reproduces every outcome bit for bit. Sampling
  // ticks count in events_executed (they are real events) but draw no RNG
  // and send no wire bytes, so everything the simulation *computes* is
  // unchanged.
  ScopedMetricsRegistry scope;
  core::Cluster cluster(golden_scenario());
  std::ostringstream stream;
  MetricsStreamer::Options opt;
  opt.period = SimTime::seconds(60);
  MetricsStreamer streamer(cluster.simulation(), stream, opt);
  const core::RunOutcome out = cluster.run_job();
  streamer.finish();

  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(out.metrics.total_seconds, 205.092772);
  EXPECT_EQ(out.metrics.map.avg_task_seconds, 51.086786833333321);
  EXPECT_EQ(out.metrics.reduce.avg_task_seconds, 29.64548400000001);
  EXPECT_EQ(out.server_bytes_sent, 120025909);
  EXPECT_EQ(out.server_bytes_received, 140783545);
  EXPECT_EQ(out.interclient_bytes, 138000000);
  EXPECT_EQ(out.scheduler_rpcs, 34);
  EXPECT_EQ(out.backoffs, 26);

  // Exactly the golden event count plus one event per sampling tick.
  const std::int64_t ticks = streamer.samples() - 1;  // minus the finish row
  EXPECT_EQ(ticks, 3);  // 205 s run, samples at 60, 120, 180
  EXPECT_EQ(static_cast<std::int64_t>(cluster.simulation().events_executed()),
            455 + ticks);

  // The acceptance bar: at least two during-run samples, non-decreasing
  // sim time, and the final row's counters equal the end-of-run registry
  // state that --metrics-json would export.
  const std::vector<std::string> rows = lines_of(stream.str());
  ASSERT_GE(rows.size(), 3u);
  double prev = -1;
  for (const std::string& row : rows) {
    EXPECT_TRUE(JsonChecker(row).valid()) << row;
    const double s = sim_s_of(row);
    EXPECT_GE(s, prev);
    prev = s;
  }
  const std::string want_rpcs = common::strprintf(
      "{\"component\": \"scheduler\", \"name\": \"rpcs\", \"labels\": {}, "
      "\"value\": %lld}",
      static_cast<long long>(out.scheduler_rpcs));
  EXPECT_NE(rows.back().find(want_rpcs), std::string::npos) << rows.back();
  EXPECT_EQ(MetricsRegistry::instance().counter_total("scheduler", "rpcs"),
            out.scheduler_rpcs);
}

// --- Chrome-trace counter tracks -------------------------------------------

TEST(Export, ChromeTraceRendersCounterTracks) {
  sim::TraceRecorder tr;
  tr.point(SimTime::seconds(1), "client", "host1", "report");
  std::vector<obs::CounterSample> counters;
  counters.push_back({SimTime::seconds(2), "scheduler/wire_bytes_out", 42});
  counters.push_back({SimTime::seconds(3), "db/ready_results", 2.5});

  const std::string json = obs::chrome_trace_json(tr, counters);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Counter events carry no tid: Chrome keys "ph":"C" tracks by (pid, name).
  EXPECT_NE(json.find("{\"name\": \"scheduler/wire_bytes_out\", "
                      "\"cat\": \"counter\", \"ph\": \"C\", \"ts\": 2000000, "
                      "\"pid\": 0, \"args\": {\"value\": 42}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\": {\"value\": 2.5}"), std::string::npos);
  // Global ts ordering holds across points and counters.
  EXPECT_LT(json.find("\"report\""), json.find("wire_bytes_out"));
}

TEST(Streamer, CounterTracksBufferedOnlyWhenEnabled) {
  ScopedMetricsRegistry scope;
  MetricsRegistry::instance().counter("scheduler", "wire_bytes_out").add(9);
  sim::Simulation sim;
  std::ostringstream out;

  {
    MetricsStreamer streamer(sim, out);  // counter_tracks defaults off
    streamer.finish();
    EXPECT_TRUE(streamer.counter_samples().empty());
  }
  {
    MetricsStreamer::Options opt;
    opt.counter_tracks = true;
    MetricsStreamer streamer(sim, out, opt);
    streamer.add_probe("depth", [] { return 4.0; });
    streamer.finish();
    // One sample per tracked counter family, per probe, plus the event
    // count, for the single finish() row.
    ASSERT_EQ(streamer.counter_samples().size(),
              opt.track_counters.size() + 2);
    bool saw_wire = false;
    for (const auto& c : streamer.counter_samples()) {
      if (c.name == "scheduler/wire_bytes_out") {
        saw_wire = true;
        EXPECT_EQ(c.value, 9);
      }
    }
    EXPECT_TRUE(saw_wire);
  }
}

}  // namespace
}  // namespace vcmr
