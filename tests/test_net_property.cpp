// Property tests over the network substrate: randomized flow workloads
// must conserve bytes, never over-allocate a link, and replay identically
// for the same seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace vcmr::net {
namespace {

struct WorkloadResult {
  Bytes completed_bytes = 0;
  int completed = 0;
  int failed = 0;
  double finish_seconds = 0;
  std::vector<Bytes> per_node_sent;
};

/// Drives a random flow workload: n nodes, k flows with random endpoints,
/// sizes, priorities, and start times.
WorkloadResult run_workload(std::uint64_t seed, int n_nodes, int n_flows,
                            double failure_rate = 0.0) {
  sim::Simulation sim(seed);
  Network net(sim);
  common::Rng rng = sim.rng_stream("workload");
  std::vector<NodeId> nodes;
  for (int i = 0; i < n_nodes; ++i) {
    NodeConfig c;
    c.up_bps = rng.uniform(1e6, 20e6);
    c.down_bps = rng.uniform(1e6, 20e6);
    c.latency = SimTime::millis(rng.uniform_int(1, 50));
    nodes.push_back(net.add_node(c));
  }
  net.set_flow_failure_rate(failure_rate);

  WorkloadResult res;
  for (int i = 0; i < n_flows; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, n_nodes - 1));
    auto dst = static_cast<std::size_t>(rng.uniform_int(0, n_nodes - 1));
    if (dst == src) dst = (dst + 1) % static_cast<std::size_t>(n_nodes);
    const Bytes bytes = rng.uniform_int(1000, 5'000'000);
    const SimTime start = SimTime::seconds(rng.uniform(0, 5));
    const bool background = rng.chance(0.3);
    sim.at(start, [&, src, dst, bytes, background] {
      FlowSpec fs;
      fs.src = nodes[src];
      fs.dst = nodes[dst];
      fs.bytes = bytes;
      fs.priority = background ? FlowPriority::kBackground
                               : FlowPriority::kForeground;
      fs.on_complete = [&, bytes] {
        ++res.completed;
        res.completed_bytes += bytes;
      };
      fs.on_fail = [&](NetError) { ++res.failed; };
      net.start_flow(std::move(fs));
    });
  }
  sim.run();
  res.finish_seconds = sim.now().as_seconds();
  for (const NodeId n : nodes) {
    res.per_node_sent.push_back(net.traffic(n).bytes_sent);
  }

  // Conservation: every flow either completed or failed, and completed
  // bytes are fully accounted in per-node counters.
  EXPECT_EQ(res.completed + res.failed, n_flows);
  Bytes total_sent = 0;
  for (const Bytes b : res.per_node_sent) total_sent += b;
  if (failure_rate == 0.0) {
    EXPECT_EQ(total_sent, res.completed_bytes);
  } else {
    EXPECT_GE(total_sent, res.completed_bytes);  // partial failed progress
  }
  return res;
}

class NetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetFuzz, RandomWorkloadConservesBytes) {
  const WorkloadResult res = run_workload(GetParam(), 8, 60);
  EXPECT_EQ(res.failed, 0);
  EXPECT_GT(res.completed_bytes, 0);
}

TEST_P(NetFuzz, RandomWorkloadWithFailures) {
  const WorkloadResult res = run_workload(GetParam(), 8, 60, 0.3);
  EXPECT_GT(res.failed, 0);
  EXPECT_GT(res.completed, 0);
}

TEST_P(NetFuzz, ReplayIsBitIdentical) {
  const WorkloadResult a = run_workload(GetParam(), 10, 80);
  const WorkloadResult b = run_workload(GetParam(), 10, 80);
  EXPECT_EQ(a.completed_bytes, b.completed_bytes);
  EXPECT_EQ(a.finish_seconds, b.finish_seconds);
  EXPECT_EQ(a.per_node_sent, b.per_node_sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetFuzz,
                         ::testing::Values(1, 5, 17, 23, 99, 12345));

// --- incremental == global allocation equivalence --------------------------
//
// The incremental allocator re-levels only the dirty connected component and
// leaves every other flow's rate, anchor, and scheduled completion event
// untouched. These runs pin that this is *exactly* equivalent — per-flow
// rates, completion/failure times, and traffic counters bit-identical — to
// re-levelling globally on every change, across randomized schedules that
// mix flow starts (zero-byte, relayed, background), cancels, completions,
// link degradation, partitions, and node outages.

struct MixedTrace {
  /// (flow index, finish time in µs, status): status 0 = completed,
  /// 1 + NetError otherwise.
  std::vector<std::tuple<int, std::int64_t, int>> outcomes;
  /// flow_rate() for every started flow, sampled at fixed instants.
  std::vector<double> sampled_rates;
  std::vector<Bytes> sent, received, relayed;
  Bytes total_bytes = 0;
  std::int64_t finish_us = 0;

  bool operator==(const MixedTrace&) const = default;
};

MixedTrace run_mixed_schedule(std::uint64_t seed, AllocMode mode,
                              bool check_alloc) {
  sim::Simulation sim(seed);
  Network net(sim);
  net.set_alloc_mode(mode);
  net.set_check_alloc(check_alloc);
  common::Rng rng = sim.rng_stream("mixed");

  constexpr int kNodes = 12;
  constexpr int kFlows = 70;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kNodes; ++i) {
    NodeConfig c;
    c.up_bps = rng.uniform(1e6, 20e6);
    c.down_bps = rng.uniform(1e6, 20e6);
    nodes.push_back(net.add_node(c));
  }
  net.set_flow_failure_rate(0.2);  // exercises the injected-failure paths

  MixedTrace res;
  auto ids = std::make_shared<std::vector<FlowId>>();
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    auto dst = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    if (dst == src) dst = (dst + 1) % kNodes;
    // A few zero-byte flows (grep-style empty partitions) hit the milestone
    // boundary; a few relayed flows couple four resources at once.
    const Bytes bytes = rng.chance(0.1) ? 0 : rng.uniform_int(1000, 8'000'000);
    const bool background = rng.chance(0.3);
    std::optional<NodeId> relay;
    if (rng.chance(0.15)) {
      const auto r = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
      if (r != src && r != dst) relay = nodes[r];
    }
    const SimTime start = SimTime::seconds(rng.uniform(0, 6));
    sim.at(start, [&res, &net, &nodes, ids, i, src, dst, bytes, background,
                   relay, &sim] {
      FlowSpec fs;
      fs.src = nodes[src];
      fs.dst = nodes[dst];
      fs.bytes = bytes;
      fs.priority = background ? FlowPriority::kBackground
                               : FlowPriority::kForeground;
      fs.relay = relay;
      fs.on_complete = [&res, &sim, i] {
        res.outcomes.emplace_back(i, sim.now().as_micros(), 0);
      };
      fs.on_fail = [&res, &sim, i](NetError e) {
        res.outcomes.emplace_back(i, sim.now().as_micros(),
                                  1 + static_cast<int>(e));
      };
      ids->push_back(net.start_flow(std::move(fs)));
    });
  }
  // Cancels of random flows (no-ops when already finished).
  for (int i = 0; i < 10; ++i) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(0, kFlows - 1));
    sim.at(SimTime::seconds(rng.uniform(1, 8)), [&net, ids, victim] {
      if (victim < ids->size()) net.cancel_flow((*ids)[victim]);
    });
  }
  // Link degradation and restoration.
  for (int i = 0; i < 8; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    const double scale = rng.uniform(0.2, 1.0);
    sim.at(SimTime::seconds(rng.uniform(0.5, 7)), [&net, &nodes, n, scale] {
      net.set_link_scale(nodes[n], scale);
    });
  }
  // A partition that forms and heals, and a node outage.
  {
    const auto p = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    sim.at(SimTime::seconds(rng.uniform(2, 5)), [&net, &nodes, p] {
      net.set_partition_class(nodes[p], 1);
    });
    sim.at(SimTime::seconds(rng.uniform(6, 9)), [&net, &nodes, p] {
      net.set_partition_class(nodes[p], 0);
    });
    const auto o = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    sim.at(SimTime::seconds(rng.uniform(3, 6)), [&net, &nodes, o] {
      net.set_online(nodes[o], false);
    });
  }
  // Rate samples at fixed instants: out-of-component flows must hold their
  // exact rates between re-levelings.
  for (int s = 1; s <= 16; ++s) {
    sim.at(SimTime::seconds(s * 0.5), [&res, &net, ids] {
      for (const FlowId id : *ids) res.sampled_rates.push_back(net.flow_rate(id));
    });
  }

  sim.run();
  res.finish_us = sim.now().as_micros();
  for (const NodeId n : nodes) {
    res.sent.push_back(net.traffic(n).bytes_sent);
    res.received.push_back(net.traffic(n).bytes_received);
    res.relayed.push_back(net.traffic(n).bytes_relayed);
  }
  res.total_bytes = net.total_bytes_transferred();
  return res;
}

class AllocEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocEquivalence, IncrementalMatchesGlobalBitForBit) {
  // The incremental run doubles as oracle coverage: with check_alloc on,
  // every reallocation is cross-checked against a fresh global water-fill.
  const MixedTrace inc =
      run_mixed_schedule(GetParam(), AllocMode::kIncremental, true);
  const MixedTrace glob =
      run_mixed_schedule(GetParam(), AllocMode::kGlobal, false);
  EXPECT_EQ(inc.outcomes, glob.outcomes);
  EXPECT_EQ(inc.sampled_rates, glob.sampled_rates);
  EXPECT_EQ(inc.sent, glob.sent);
  EXPECT_EQ(inc.received, glob.received);
  EXPECT_EQ(inc.relayed, glob.relayed);
  EXPECT_EQ(inc.total_bytes, glob.total_bytes);
  EXPECT_EQ(inc.finish_us, glob.finish_us);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- independent allocator oracle -----------------------------------------
//
// VCMR_NET_CHECK_ALLOC and AllocMode::kGlobal both run the allocator's own
// level(), so neither can see a change in its floating-point operation
// order. This is the historical std::map-based progressive filling, kept
// verbatim as an executable spec (only its inputs now come through the
// public API): flows in FlowId order, resources keyed +id (uplink) and
// -id-1 (downlink) and scanned in key order, so the bottleneck is the
// smallest max(0, cap) / users with ties to the smallest key. Every
// flow_rate() must equal it bit for bit.

struct OracleFlow {
  NodeId src, dst;
  std::optional<NodeId> relay;
  FlowPriority priority = FlowPriority::kForeground;
};

std::map<FlowId, double> reference_level(
    const Network& net, const std::map<FlowId, OracleFlow>& flows) {
  const auto up_key = [](NodeId id) { return id.value(); };
  const auto down_key = [](NodeId id) { return -id.value() - 1; };
  const auto resources_of = [&](const OracleFlow& f) {
    std::vector<std::int64_t> r{up_key(f.src), down_key(f.dst)};
    if (f.relay) {
      r.push_back(down_key(*f.relay));
      r.push_back(up_key(*f.relay));
    }
    return r;
  };
  const auto resource_capacity = [&](std::int64_t key) {
    const NodeId id{key >= 0 ? key : -key - 1};
    return (key >= 0 ? net.up_bps(id) : net.down_bps(id)) * net.link_scale(id);
  };
  std::set<FlowId> ids;
  for (const auto& [id, f] : flows) ids.insert(id);

  std::map<FlowId, double> rate;
  std::map<std::int64_t, double> cap;  // remaining capacity per resource
  for (const FlowId id : ids) {
    rate[id] = 0.0;
    for (const auto r : resources_of(flows.at(id))) {
      cap.emplace(r, resource_capacity(r));
    }
  }

  for (const FlowPriority cls :
       {FlowPriority::kForeground, FlowPriority::kBackground}) {
    // Flows of this class still awaiting a rate.
    std::map<FlowId, const OracleFlow*> pending;
    std::map<std::int64_t, int> users;  // resource -> #pending flows
    for (const FlowId id : ids) {
      const OracleFlow& f = flows.at(id);
      if (f.priority != cls) continue;
      pending.emplace(id, &f);
      for (const auto r : resources_of(f)) ++users[r];
    }
    while (!pending.empty()) {
      // Find the bottleneck: resource with the smallest fair share.
      double best_share = std::numeric_limits<double>::infinity();
      std::int64_t best_r = 0;
      for (const auto& [r, n] : users) {
        if (n <= 0) continue;
        const double share = std::max(0.0, cap[r]) / n;
        if (share < best_share) {
          best_share = share;
          best_r = r;
        }
      }
      if (!std::isfinite(best_share)) break;
      // Freeze every pending flow crossing the bottleneck at the fair share.
      for (auto it = pending.begin(); it != pending.end();) {
        const auto rs = resources_of(*it->second);
        if (std::find(rs.begin(), rs.end(), best_r) == rs.end()) {
          ++it;
          continue;
        }
        rate[it->first] = best_share;
        for (const auto r : rs) {
          cap[r] -= best_share;
          --users[r];
        }
        it = pending.erase(it);
      }
    }
  }
  return rate;
}

/// Where run_oracle_star() puts a relay. kThirdClient drops a draw that
/// lands on an endpoint; kSender and kReceiver relay through that endpoint,
/// so the flow lists one of its links twice.
enum class RelayAt { kThirdClient, kSender, kReceiver };

/// Drives a project-server star (every link the same 100 Mbit Emulab
/// interface, so fair shares tie across links and only the smallest-key
/// rule picks the bottleneck) plus client-to-client, relayed and
/// background flows, link degradation and an outage, checking every
/// active flow's rate against reference_level() after each network
/// change. Returns the number of (flow, instant) rates compared.
int run_oracle_star(std::uint64_t seed, AllocMode mode,
                    RelayAt relay_at = RelayAt::kThirdClient) {
  sim::Simulation sim(seed);
  Network net(sim);
  net.set_alloc_mode(mode);
  common::Rng rng = sim.rng_stream("oracle");

  constexpr int kClients = 9;
  const NodeId server = net.add_node(NodeConfig{});
  std::vector<NodeId> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(net.add_node(NodeConfig{}));
  const auto client = [&] {
    return clients[static_cast<std::size_t>(rng.uniform_int(0, kClients - 1))];
  };

  std::map<FlowId, OracleFlow> started;
  int compared = 0;
  const auto check = [&] {
    std::map<FlowId, OracleFlow> active;
    for (const auto& [id, f] : started) {
      if (net.flow_active(id)) active.emplace(id, f);
    }
    for (const auto& [id, want] : reference_level(net, active)) {
      const double r = want < 1e-3 ? 0.0 : want;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(net.flow_rate(id)),
                std::bit_cast<std::uint64_t>(r))
          << "flow " << id.value() << " at " << sim.now().str() << ": "
          << net.flow_rate(id) << " vs oracle " << r;
      ++compared;
    }
  };

  for (int i = 0; i < 80; ++i) {
    OracleFlow f;
    const double kind = rng.uniform();
    if (kind < 0.45) {  // input download from the server
      f.src = server;
      f.dst = client();
    } else if (kind < 0.8) {  // output upload to the server
      f.src = client();
      f.dst = server;
    } else {  // inter-client transfer, sometimes relayed
      f.src = client();
      do {
        f.dst = client();
      } while (f.dst == f.src);
      if (rng.chance(0.5)) {
        NodeId relay = client();
        if (relay_at == RelayAt::kSender) {
          f.relay = f.src;
        } else if (relay_at == RelayAt::kReceiver) {
          f.relay = f.dst;
        } else if (relay != f.src && relay != f.dst) {
          f.relay = relay;
        }
      }
    }
    if (rng.chance(0.25)) f.priority = FlowPriority::kBackground;
    const Bytes bytes = rng.uniform_int(100'000, 20'000'000);
    const SimTime start = SimTime::millis(rng.uniform_int(0, 4000));
    sim.at(start, [&, f, bytes] {
      FlowSpec fs;
      fs.src = f.src;
      fs.dst = f.dst;
      fs.relay = f.relay;
      fs.bytes = bytes;
      fs.priority = f.priority;
      fs.on_complete = check;
      fs.on_fail = [&](NetError) { check(); };
      started.emplace(net.start_flow(std::move(fs)), f);
      check();
    });
  }
  // Degrade and restore links (uniform per node, so ties survive), and
  // take one client offline for a while.
  for (int i = 0; i < 6; ++i) {
    const NodeId n = rng.chance(0.3) ? server : client();
    const double scale = rng.chance(0.5) ? 0.5 : rng.uniform(0.2, 1.0);
    sim.at(SimTime::millis(rng.uniform_int(500, 6000)), [&, n, scale] {
      net.set_link_scale(n, scale);
      check();
    });
  }
  const NodeId down = client();
  sim.at(SimTime::seconds(3), [&, down] {
    net.set_online(down, false);
    check();
  });
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  return compared;
}

class AllocOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocOracle, RatesMatchHistoricalFillBitForBit) {
  for (const AllocMode mode : {AllocMode::kIncremental, AllocMode::kGlobal}) {
    EXPECT_GT(run_oracle_star(GetParam(), mode), 1000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocOracle,
                         ::testing::Range<std::uint64_t>(1, 13));

// A relay that is also an endpoint puts the flow on one link's index twice:
// the fill must freeze it once and take its share off that link twice.
class AllocOracleRelayAtEndpoint
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocOracleRelayAtEndpoint, RatesMatchHistoricalFillBitForBit) {
  for (const AllocMode mode : {AllocMode::kIncremental, AllocMode::kGlobal}) {
    for (const RelayAt at : {RelayAt::kSender, RelayAt::kReceiver}) {
      EXPECT_GT(run_oracle_star(GetParam(), mode, at), 1000);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocOracleRelayAtEndpoint,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- firing order of tied completions --------------------------------------
//
// Flows of one size started at one instant on equal links get equal
// shares, so their completions land on the same microsecond and only the
// events' sequence numbers order them. Those numbers come from the order in
// which a re-level (re)schedules the re-rated flows; the digest below pins
// that order, the rates behind every completion time, and the event count.

/// Runs a batched star workload and hashes every callback in firing order
/// (flow id, completed or which NetError, now() in µs), then the executed
/// event count. `tied` counts callbacks that share the previous one's
/// microsecond.
std::string completion_order_digest(std::uint64_t seed, int& tied) {
  sim::Simulation sim(seed);
  Network net(sim);
  common::Rng rng = sim.rng_stream("completion-order");

  constexpr int kClients = 9;
  const NodeId server = net.add_node(NodeConfig{});
  std::vector<NodeId> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(net.add_node(NodeConfig{}));
  const auto client = [&] {
    return clients[static_cast<std::size_t>(rng.uniform_int(0, kClients - 1))];
  };
  net.set_flow_failure_rate(0.05);

  common::Hasher h;
  std::int64_t last_us = -1;
  const auto record = [&](FlowId id, int status) {
    const std::int64_t us = sim.now().as_micros();
    if (us == last_us) ++tied;
    last_us = us;
    h.update_u64(static_cast<std::uint64_t>(id.value()));
    h.update_u64(static_cast<std::uint64_t>(status));
    h.update_u64(static_cast<std::uint64_t>(us));
  };

  for (int b = 0; b < 20; ++b) {
    const SimTime start = SimTime::millis(rng.uniform_int(0, 12'000));
    const Bytes bytes = 1'000'000 * rng.uniform_int(1, 6);
    const auto n = rng.uniform_int(2, 6);
    std::vector<FlowSpec> batch;
    for (std::int64_t k = 0; k < n; ++k) {
      FlowSpec fs;
      const double kind = rng.uniform();
      if (kind < 0.4) {  // download from the server
        fs.src = server;
        fs.dst = client();
      } else if (kind < 0.75) {  // upload to the server
        fs.src = client();
        fs.dst = server;
      } else {  // client to client, half of them relayed
        fs.src = client();
        do {
          fs.dst = client();
        } while (fs.dst == fs.src);
        if (rng.chance(0.5)) {
          const NodeId relay = client();
          if (relay != fs.src && relay != fs.dst) fs.relay = relay;
        }
      }
      if (rng.chance(0.2)) fs.priority = FlowPriority::kBackground;
      fs.bytes = bytes;
      batch.push_back(std::move(fs));
    }
    sim.at(start, [&, batch] {
      for (FlowSpec fs : batch) {
        auto id = std::make_shared<FlowId>();
        fs.on_complete = [&record, id] { record(*id, 0); };
        fs.on_fail = [&record, id](NetError e) {
          record(*id, 1 + static_cast<int>(e));
        };
        *id = net.start_flow(std::move(fs));
      }
    });
  }
  for (int i = 0; i < 4; ++i) {
    const NodeId n = rng.chance(0.3) ? server : client();
    const double scale = rng.chance(0.5) ? 0.5 : 1.0;
    sim.at(SimTime::millis(rng.uniform_int(1'000, 14'000)),
           [&net, n, scale] { net.set_link_scale(n, scale); });
  }
  const NodeId down = client();
  const SimTime outage = SimTime::millis(rng.uniform_int(2'000, 10'000));
  sim.at(outage, [&net, down] { net.set_online(down, false); });
  sim.at(outage + SimTime::seconds(1), [&net, down] { net.set_online(down, true); });

  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  h.update_u64(static_cast<std::uint64_t>(sim.events_executed()));
  return h.digest().hex();
}

TEST(NetProperty, CompletionOrderIsPinned) {
  const std::vector<std::string> want = {
      "46216b4aa558ab9f24abe72d649e54f1",  // seed 1
      "5f2c2e9d7c6b7e91765692b6bb1bad1a",  // seed 2
      "a78224b63f3c6238bfc3f1306d120fe3",  // seed 3
      "1dec0cfd5659756b57080b229b9a086c",  // seed 4
      "cfaf61bd4cd8ff9edd8268fcf8d841c0",  // seed 5
      "fd4c87db00f98ae87379a65b62c97bd9",  // seed 6
      "bd6e7be6f1b190ca96f842a5c2c46259",  // seed 7
      "e6b3042ec2b3a03397e77eb45bff15e1",  // seed 8
      "4770f01556c44fbae918a18d7278774b",  // seed 9
      "a1f0926572c2c2c61d5e5ee4822b06f2",  // seed 10
      "e0ca33b885cb1f7e117ea77730b701ef",  // seed 11
      "c00ef7e9e959cecd618ad6b6169061ab",  // seed 12
  };
  int tied = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    EXPECT_EQ(completion_order_digest(seed, tied), want[seed - 1])
        << "seed " << seed;
  }
  EXPECT_GT(tied, 200);
}

TEST(NetProperty, AllocationNeverExceedsCapacity) {
  // At every reallocation instant, each node's outgoing allocation must be
  // within its uplink capacity. Sample during a busy random workload.
  sim::Simulation sim(7);
  Network net(sim);
  common::Rng rng = sim.rng_stream("capcheck");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    NodeConfig c;
    c.up_bps = 1e6;
    c.down_bps = 1.5e6;
    nodes.push_back(net.add_node(c));
  }
  for (int i = 0; i < 40; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const auto dst = (src + 1 + static_cast<std::size_t>(rng.uniform_int(0, 4))) % 6;
    sim.at(SimTime::seconds(rng.uniform(0, 3)), [&, src, dst] {
      FlowSpec fs;
      fs.src = nodes[src];
      fs.dst = nodes[dst];
      fs.bytes = 2'000'000;
      net.start_flow(std::move(fs));
    });
  }
  // Sample capacities every 100 ms for 20 s.
  std::function<void()> check = [&] {
    for (const NodeId n : nodes) {
      EXPECT_LE(net.instantaneous_tx_bps(n), 1e6 * 1.0001);
      EXPECT_LE(net.instantaneous_rx_bps(n), 1.5e6 * 1.0001);
    }
    if (sim.now() < SimTime::seconds(20)) {
      sim.after(SimTime::millis(100), check);
    }
  };
  sim.after(SimTime::zero(), check);
  sim.run();
}

TEST(NetProperty, BackgroundNeverStealsFromForeground) {
  // Whatever the mix, foreground flows collectively get at least as much
  // as they would under foreground-only allocation on the same links.
  sim::Simulation sim(11);
  Network net(sim);
  NodeConfig c;
  c.up_bps = 8e6;
  const NodeId server = net.add_node(c);
  std::vector<NodeId> sinks;
  for (int i = 0; i < 4; ++i) sinks.push_back(net.add_node(NodeConfig{}));

  std::vector<FlowId> fg, bg;
  for (int i = 0; i < 2; ++i) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = sinks[static_cast<std::size_t>(i)];
    fs.bytes = 1'000'000'000;
    fg.push_back(net.start_flow(std::move(fs)));
  }
  for (int i = 2; i < 4; ++i) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = sinks[static_cast<std::size_t>(i)];
    fs.bytes = 1'000'000'000;
    fs.priority = FlowPriority::kBackground;
    bg.push_back(net.start_flow(std::move(fs)));
  }
  double fg_rate = 0, bg_rate = 0;
  for (const FlowId id : fg) fg_rate += net.flow_rate(id);
  for (const FlowId id : bg) bg_rate += net.flow_rate(id);
  // Foreground takes the entire uplink; background is starved while
  // foreground demand saturates the link.
  EXPECT_NEAR(fg_rate, 8e6, 1);
  EXPECT_NEAR(bg_rate, 0, 1);
}

}  // namespace
}  // namespace vcmr::net
