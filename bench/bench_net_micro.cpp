// E12 — Substrate micro-benchmarks: event engine, fair-share allocator,
// XML parsing, and a whole simulated job per second (google-benchmark).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/xml.h"
#include "core/cluster.h"
#include "net/network.h"
#include "proto/messages.h"
#include "sim/simulation.h"

namespace vcmr {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(1);
    for (int i = 0; i < 10000; ++i) {
      sim.after(SimTime::micros(i), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The keep_serving pattern: n pending far-future timeouts, every one
// re-armed to one later instant per iteration, as
// MapOutputServer::reset_timeouts does on each scheduler reply; none fires.
void BM_RescheduleLater(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim(1);
  std::vector<sim::EventHandle> timeouts;
  for (std::size_t i = 0; i < n; ++i) {
    timeouts.push_back(sim.after(SimTime::hours(1), [] {}));
  }
  SimTime at = SimTime::hours(1);
  for (auto _ : state) {
    at += SimTime::seconds(1);
    for (sim::EventHandle& h : timeouts) h = sim.reschedule(h, at);
    benchmark::DoNotOptimize(timeouts.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RescheduleLater)->Arg(1024)->Arg(4096);

void BM_FairShareReallocation(benchmark::State& state) {
  const int n_flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim(1);
    net::Network net(sim);
    const NodeId server = net.add_node(net::NodeConfig{});
    // Every started flow triggers a full reallocation over all live flows.
    for (int i = 0; i < n_flows; ++i) {
      const NodeId c = net.add_node(net::NodeConfig{});
      net::FlowSpec fs;
      fs.src = server;
      fs.dst = c;
      fs.bytes = 1'000'000'000;
      net.start_flow(std::move(fs));
    }
    benchmark::DoNotOptimize(net.active_flow_count());
  }
  state.SetItemsProcessed(state.iterations() * n_flows);
}
BENCHMARK(BM_FairShareReallocation)->Arg(10)->Arg(40)->Arg(100);

// Many-round re-levels: n clients with distinct small uplinks upload to
// one server, so every flow is its own bottleneck and each re-level runs
// one round per live flow (the star above settles in one round).
void BM_HeterogeneousUploadReallocation(benchmark::State& state) {
  const int n_flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim(1);
    net::Network net(sim);
    const NodeId server = net.add_node(net::NodeConfig{});
    for (int i = 0; i < n_flows; ++i) {
      net::NodeConfig cfg;
      cfg.up_bps = 1e3 * (i + 1);
      const NodeId c = net.add_node(cfg);
      net::FlowSpec fs;
      fs.src = c;
      fs.dst = server;
      fs.bytes = 1'000'000'000;
      net.start_flow(std::move(fs));
    }
    benchmark::DoNotOptimize(net.active_flow_count());
  }
  state.SetItemsProcessed(state.iterations() * n_flows);
}
BENCHMARK(BM_HeterogeneousUploadReallocation)->Arg(10)->Arg(40)->Arg(100);

/// A reduce assignment carrying 20 mapper locations.
proto::SchedulerReply reduce_reply() {
  proto::SchedulerReply reply;
  proto::AssignedTask t;
  t.phase = proto::TaskPhase::kReduce;
  for (int i = 0; i < 20; ++i) {
    proto::InputFileSpec in;
    in.name = "job_map_" + std::to_string(i) + "_0.part0";
    in.size = 1000000;
    proto::PeerLocation p;
    p.map_index = i;
    p.file_name = in.name;
    p.endpoint = {NodeId{i}, 31416};
    in.peers.push_back(p);
    t.inputs.push_back(in);
  }
  reply.tasks.push_back(t);
  return reply;
}

void BM_SchedulerRpcXmlRoundTrip(benchmark::State& state) {
  const std::string xml = proto::to_xml(reduce_reply());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::reply_from_xml(xml));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_SchedulerRpcXmlRoundTrip);

// What the simulator pays per reply instead: counting the same bytes.
void BM_SchedulerRpcWireSize(benchmark::State& state) {
  const proto::SchedulerReply reply = reduce_reply();
  Bytes size = 0;
  for (auto _ : state) {
    size = proto::wire_size(reply);
    benchmark::DoNotOptimize(size);
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_SchedulerRpcWireSize);

void BM_XmlParse(benchmark::State& state) {
  common::XmlNode root("doc");
  for (int i = 0; i < 100; ++i) {
    auto& c = root.add_child("entry");
    c.add_child_text("name", "item" + std::to_string(i));
    c.add_child_text("value", std::to_string(i * 37));
  }
  const std::string xml = root.to_string();
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::xml_parse(xml));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse);

void BM_FullSimulatedJob(benchmark::State& state) {
  common::LogConfig::instance().set_level(common::LogLevel::kOff);
  const bool mr = state.range(0) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::Scenario s;
    s.seed = seed++;
    s.n_nodes = 20;
    s.n_maps = 20;
    s.n_reducers = 5;
    s.input_size = 1000LL * 1000 * 1000;
    s.boinc_mr = mr;
    core::Cluster cluster(s);
    benchmark::DoNotOptimize(cluster.run_job());
  }
}
BENCHMARK(BM_FullSimulatedJob)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vcmr

BENCHMARK_MAIN();
