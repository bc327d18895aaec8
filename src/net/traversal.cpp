#include "net/traversal.h"

#include "obs/metrics.h"

namespace vcmr::net {

const char* to_string(ConnectTier t) {
  switch (t) {
    case ConnectTier::kDirect: return "direct";
    case ConnectTier::kReversal: return "reversal";
    case ConnectTier::kHolePunch: return "hole-punch";
    case ConnectTier::kRelay: return "relay";
    case ConnectTier::kFailed: return "failed";
  }
  return "?";
}

std::int64_t connects(const obs::MetricsRegistry& reg, ConnectTier tier) {
  return reg.counter_value("traversal", "connects",
                           {{"tier", to_string(tier)}});
}

std::int64_t connects(const obs::MetricsRegistry& reg) {
  return reg.counter_total("traversal", "connects");
}

ConnectionEstablisher::ConnectionEstablisher(Network& network, NodeId rendezvous,
                                             TraversalPolicy policy)
    : net_(network),
      rendezvous_(rendezvous),
      policy_(policy),
      punch_rng_(network.sim().rng_stream("net.punch")) {}

void ConnectionEstablisher::set_profile(NodeId node, NatProfile profile) {
  profiles_[node] = profile;
}

NatProfile ConnectionEstablisher::profile(NodeId node) const {
  const auto it = profiles_.find(node);
  return it == profiles_.end() ? NatProfile{} : it->second;
}

ConnectResult ConnectionEstablisher::decide(NodeId initiator, NodeId target,
                                            common::Rng& rng) const {
  ConnectResult r;
  r.setup_time = SimTime::zero();
  const NatProfile pi = profile(initiator);
  const NatProfile pt = profile(target);

  // Tier 1: direct. Works when the target accepts unsolicited inbound.
  if (accepts_inbound(pt)) {
    r.tier = ConnectTier::kDirect;
    r.setup_time += net_.rtt(initiator, target);  // TCP handshake
    return r;
  }
  // An attempted direct connection times out before we escalate.
  r.setup_time += policy_.direct_timeout;

  // Tier 2: connection reversal. The NATed target is signalled through the
  // rendezvous server and dials back to the (public) initiator.
  if (policy_.allow_reversal && accepts_inbound(pi)) {
    r.tier = ConnectTier::kReversal;
    r.setup_time += net_.rtt(initiator, rendezvous_) +
                    net_.rtt(rendezvous_, target) + net_.rtt(target, initiator);
    return r;
  }

  // Tier 3: STUN-style hole punching, both sides behind NATs.
  if (policy_.allow_hole_punch) {
    const double p = hole_punch_probability(pi.type, pt.type, policy_.transport);
    const SimTime punch_cost = net_.rtt(initiator, rendezvous_) +
                               net_.rtt(rendezvous_, target) + policy_.punch_time;
    r.setup_time += punch_cost;
    if (rng.chance(p)) {
      r.tier = ConnectTier::kHolePunch;
      return r;
    }
  }

  // Tier 4: TURN-style relay. Prefer the provider (supernode overlay); the
  // project server remains the relay of last resort (§III.D: "the server
  // could work as a relay node").
  if (policy_.allow_relay) {
    std::optional<NodeId> relay;
    if (relay_provider_) relay = relay_provider_(initiator, target);
    if (!relay || !net_.online(*relay)) relay = rendezvous_;
    if (relay && net_.online(*relay)) {
      r.tier = ConnectTier::kRelay;
      r.relay = relay;
      r.setup_time += net_.rtt(initiator, *relay);
      return r;
    }
  }

  r.tier = ConnectTier::kFailed;
  return r;
}

ConnectResult ConnectionEstablisher::plan(NodeId initiator, NodeId target,
                                          common::Rng& rng) const {
  return decide(initiator, target, rng);
}

void ConnectionEstablisher::establish(NodeId initiator, NodeId target,
                                      std::function<void(ConnectResult)> on_done) {
  ConnectResult r;
  if (!net_.online(initiator) || !net_.online(target)) {
    r.tier = ConnectTier::kFailed;
  } else {
    r = decide(initiator, target, punch_rng_);
  }
  obs::MetricsRegistry::instance()
      .counter("traversal", "connects", {{"tier", to_string(r.tier)}})
      .add();
  net_.sim().after(r.setup_time, [r, on_done = std::move(on_done)] {
    on_done(r);
  });
}

}  // namespace vcmr::net
