// Tests for NAT modelling, the traversal tier ladder, and the supernode
// overlay (paper §III.D future-work machinery).

#include <gtest/gtest.h>

#include "net/nat.h"
#include "net/overlay.h"
#include "net/traversal.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace vcmr::net {
namespace {

TEST(Nat, PublicReachability) {
  const NatProfile open{NatType::kNone, false};
  const NatProfile sym{NatType::kSymmetric, false};
  // Port forwarding makes any NAT type reachable (the paper's deployment
  // mode: "having users open ports").
  const NatProfile forwarded{NatType::kSymmetric, true};
  EXPECT_TRUE(open.publicly_reachable());
  EXPECT_FALSE(sym.publicly_reachable());
  EXPECT_TRUE(forwarded.publicly_reachable());
}

TEST(Nat, PunchMatrixSymmetricPairFails) {
  EXPECT_EQ(hole_punch_probability(NatType::kSymmetric, NatType::kSymmetric,
                                   Transport::kUdp),
            0.0);
}

TEST(Nat, PunchConeToConeReliable) {
  EXPECT_GT(hole_punch_probability(NatType::kFullCone, NatType::kRestrictedCone,
                                   Transport::kUdp),
            0.9);
}

TEST(Nat, TcpPunchingLessReliableThanUdp) {
  for (const auto a : {NatType::kFullCone, NatType::kPortRestricted}) {
    for (const auto b : {NatType::kFullCone, NatType::kSymmetric}) {
      const double udp = hole_punch_probability(a, b, Transport::kUdp);
      const double tcp = hole_punch_probability(a, b, Transport::kTcp);
      EXPECT_LE(tcp, udp);
    }
  }
}

struct TravFixture {
  sim::Simulation sim{5};
  Network net{sim};
  NodeId server, pub1, pub2, nat1, nat2, sym1, sym2;

  TravFixture() {
    NodeConfig c;
    server = net.add_node(c);
    pub1 = net.add_node(c);
    pub2 = net.add_node(c);
    nat1 = net.add_node(c);
    nat2 = net.add_node(c);
    sym1 = net.add_node(c);
    sym2 = net.add_node(c);
  }

  ConnectionEstablisher make(TraversalPolicy pol = {}) {
    ConnectionEstablisher e(net, server, pol);
    e.set_profile(pub1, {NatType::kNone, false});
    e.set_profile(pub2, {NatType::kNone, false});
    e.set_profile(nat1, {NatType::kFullCone, false});
    e.set_profile(nat2, {NatType::kPortRestricted, false});
    e.set_profile(sym1, {NatType::kSymmetric, false});
    e.set_profile(sym2, {NatType::kSymmetric, false});
    return e;
  }
};

TEST(Traversal, DirectWhenTargetPublic) {
  TravFixture f;
  auto e = f.make();
  common::Rng rng(1);
  const ConnectResult r = e.plan(f.nat1, f.pub1, rng);
  EXPECT_EQ(r.tier, ConnectTier::kDirect);
  EXPECT_FALSE(r.relay.has_value());
}

TEST(Traversal, ReversalWhenInitiatorPublic) {
  TravFixture f;
  auto e = f.make();
  common::Rng rng(1);
  const ConnectResult r = e.plan(f.pub1, f.nat1, rng);
  EXPECT_EQ(r.tier, ConnectTier::kReversal);
}

TEST(Traversal, SymmetricPairFallsBackToRelay) {
  TravFixture f;
  auto e = f.make();
  common::Rng rng(1);
  const ConnectResult r = e.plan(f.sym1, f.sym2, rng);
  EXPECT_EQ(r.tier, ConnectTier::kRelay);
  ASSERT_TRUE(r.relay.has_value());
  EXPECT_EQ(*r.relay, f.server);
}

TEST(Traversal, ConeNatsUsuallyPunch) {
  TravFixture f;
  TraversalPolicy pol;
  pol.transport = Transport::kUdp;
  auto e = f.make(pol);
  common::Rng rng(3);
  int punched = 0;
  for (int i = 0; i < 200; ++i) {
    const ConnectResult r = e.plan(f.nat1, f.nat2, rng);
    if (r.tier == ConnectTier::kHolePunch) ++punched;
  }
  EXPECT_GT(punched, 170);  // ~95% succeed
}

TEST(Traversal, DisabledTiersSkip) {
  TravFixture f;
  TraversalPolicy pol;
  pol.allow_reversal = false;
  pol.allow_hole_punch = false;
  pol.allow_relay = false;
  auto e = f.make(pol);
  common::Rng rng(1);
  EXPECT_EQ(e.plan(f.pub1, f.nat1, rng).tier, ConnectTier::kFailed);
}

TEST(Traversal, SetupTimeGrowsDownTheLadder) {
  TravFixture f;
  auto e = f.make();
  common::Rng rng(1);
  const auto direct = e.plan(f.nat1, f.pub1, rng);
  const auto reversal = e.plan(f.pub1, f.nat1, rng);
  const auto relay = e.plan(f.sym1, f.sym2, rng);
  EXPECT_LT(direct.setup_time, reversal.setup_time);
  EXPECT_LT(reversal.setup_time, relay.setup_time);
}

TEST(Traversal, EstablishCountsStats) {
  obs::ScopedMetricsRegistry metrics;
  TravFixture f;
  auto e = f.make();
  int done = 0;
  e.establish(f.nat1, f.pub1, [&](ConnectResult r) {
    EXPECT_EQ(r.tier, ConnectTier::kDirect);
    ++done;
  });
  e.establish(f.sym1, f.sym2, [&](ConnectResult r) {
    EXPECT_EQ(r.tier, ConnectTier::kRelay);
    ++done;
  });
  f.sim.run();
  EXPECT_EQ(done, 2);
  const obs::MetricsRegistry& reg = metrics.registry();
  EXPECT_EQ(connects(reg), 2);
  EXPECT_EQ(connects(reg, ConnectTier::kDirect), 1);
  EXPECT_EQ(connects(reg, ConnectTier::kRelay), 1);
}

TEST(Traversal, OfflineTargetFails) {
  TravFixture f;
  auto e = f.make();
  f.net.set_online(f.pub1, false);
  bool failed = false;
  e.establish(f.nat1, f.pub1, [&](ConnectResult r) {
    failed = !r.ok();
  });
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(Traversal, CustomRelayProvider) {
  TravFixture f;
  auto e = f.make();
  e.set_relay_provider([&](NodeId, NodeId) { return f.pub2; });
  common::Rng rng(1);
  const ConnectResult r = e.plan(f.sym1, f.sym2, rng);
  EXPECT_EQ(r.tier, ConnectTier::kRelay);
  EXPECT_EQ(*r.relay, f.pub2);
}

struct OverlayFixture {
  sim::Simulation sim{9};
  Network net{sim};

  NodeId add(double up_mbps) {
    NodeConfig c;
    c.up_bps = up_mbps * 1e6 / 8;
    return net.add_node(c);
  }
};

TEST(Overlay, PromotesHighBandwidthPublicNodes) {
  OverlayFixture f;
  OverlayConfig cfg;
  cfg.supernode_fraction = 0.25;
  SupernodeOverlay ov(f.net, cfg);
  const NodeId fat = f.add(100);
  const NodeId thin = f.add(1);
  const NodeId natted = f.add(100);
  const NodeId mid = f.add(50);
  ov.join(fat, {NatType::kNone, false});
  ov.join(thin, {NatType::kNone, false});
  ov.join(natted, {NatType::kSymmetric, false});
  ov.join(mid, {NatType::kNone, false});
  EXPECT_TRUE(ov.is_supernode(fat));
  EXPECT_FALSE(ov.is_supernode(natted));  // unreachable can't be a supernode
  EXPECT_FALSE(ov.is_supernode(thin));    // below the uplink bar
}

TEST(Overlay, OrdinaryNodesAttach) {
  OverlayFixture f;
  SupernodeOverlay ov(f.net);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(f.add(i < 2 ? 100 : 20));
    ov.join(nodes.back(), {i < 2 ? NatType::kNone : NatType::kPortRestricted,
                           false});
  }
  EXPECT_GE(ov.supernode_count(), 1u);
  for (const NodeId n : nodes) {
    if (ov.is_supernode(n)) continue;
    EXPECT_FALSE(ov.attachments_of(n).empty());
  }
}

TEST(Overlay, RelayLoadBalances) {
  OverlayFixture f;
  OverlayConfig cfg;
  cfg.supernode_fraction = 0.5;
  SupernodeOverlay ov(f.net, cfg);
  const NodeId s1 = f.add(100);
  const NodeId s2 = f.add(100);
  const NodeId o1 = f.add(10);
  const NodeId o2 = f.add(10);
  ov.join(s1, {NatType::kNone, false});
  ov.join(s2, {NatType::kNone, false});
  ov.join(o1, {NatType::kSymmetric, false});
  ov.join(o2, {NatType::kSymmetric, false});
  ASSERT_EQ(ov.supernode_count(), 2u);
  const auto r1 = ov.pick_relay(o1, o2);
  const auto r2 = ov.pick_relay(o1, o2);
  ASSERT_TRUE(r1 && r2);
  EXPECT_NE(*r1, *r2);  // second pick goes to the other, unloaded supernode
  ov.release_relay(*r1);
  EXPECT_EQ(ov.relay_load(*r1), 0);
}

TEST(Overlay, LeaveDemotes) {
  OverlayFixture f;
  SupernodeOverlay ov(f.net);
  const NodeId s = f.add(100);
  ov.join(s, {NatType::kNone, false});
  EXPECT_TRUE(ov.is_supernode(s));
  ov.leave(s);
  EXPECT_EQ(ov.member_count(), 0u);
  EXPECT_FALSE(ov.pick_relay(s, s).has_value());
}

TEST(Overlay, LookupHops) {
  OverlayFixture f;
  OverlayConfig cfg;
  cfg.attachments = 1;
  cfg.supernode_fraction = 0.5;
  SupernodeOverlay ov(f.net, cfg);
  const NodeId s1 = f.add(100);
  const NodeId o1 = f.add(10);
  ov.join(s1, {NatType::kNone, false});
  ov.join(o1, {NatType::kSymmetric, false});
  EXPECT_EQ(ov.lookup_hops(o1, s1), 1);  // shares its only supernode
  EXPECT_EQ(ov.lookup_hops(o1, NodeId{999}), 0);
}

}  // namespace
}  // namespace vcmr::net
