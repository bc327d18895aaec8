#pragma once
// Tiered NAT traversal (paper §III.D).
//
// The paper lays out a tiered plan modelled on Skype: try a direct
// connection; if the target is NATed but the initiator is public, use
// *connection reversal* (signal the target through the rendezvous server
// and have it connect outward); if both are NATed, attempt STUN-style
// *hole punching*; and as the last resort fall back to a TURN-style
// *relay* (the project server, or a supernode). ConnectionEstablisher
// implements exactly that ladder over the simulated network.

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "net/nat.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace vcmr::net {

enum class ConnectTier { kDirect, kReversal, kHolePunch, kRelay, kFailed };
const char* to_string(ConnectTier t);

/// Connection attempts counted into `reg` as `traversal/connects{tier}`:
/// those that ended at `tier`, or all of them.
std::int64_t connects(const obs::MetricsRegistry& reg, ConnectTier tier);
std::int64_t connects(const obs::MetricsRegistry& reg);

struct ConnectResult {
  ConnectTier tier = ConnectTier::kFailed;
  std::optional<NodeId> relay;  ///< set when tier == kRelay
  SimTime setup_time;           ///< simulated time spent establishing

  bool ok() const { return tier != ConnectTier::kFailed; }
};

/// Which tiers are enabled; the paper's shipped prototype is direct-only
/// (volunteers open ports), the future-work design enables all four.
struct TraversalPolicy {
  bool allow_reversal = true;
  bool allow_hole_punch = true;
  bool allow_relay = true;
  Transport transport = Transport::kTcp;  ///< prototype uses TCP sockets
  /// Wall time charged for a failed direct attempt (SYN timeout).
  SimTime direct_timeout = SimTime::seconds(3);
  /// Fixed cost of a hole-punch round beyond signalling RTTs.
  SimTime punch_time = SimTime::seconds(2);
};

class ConnectionEstablisher {
 public:
  /// `rendezvous` is the publicly reachable signalling server (the BOINC
  /// project server in the paper's setting).
  ConnectionEstablisher(Network& network, NodeId rendezvous,
                        TraversalPolicy policy = {});

  void set_profile(NodeId node, NatProfile profile);
  NatProfile profile(NodeId node) const;

  /// Optional relay chooser; defaults to the rendezvous server. A supernode
  /// overlay plugs in here.
  void set_relay_provider(std::function<std::optional<NodeId>(NodeId, NodeId)> f) {
    relay_provider_ = std::move(f);
  }

  /// Asynchronously walk the tier ladder from `initiator` towards `target`
  /// (the node that must accept the connection). The callback fires after
  /// the simulated setup time with the tier that succeeded, or kFailed.
  /// Each call counts once in `traversal/connects{tier}` when it decides.
  void establish(NodeId initiator, NodeId target,
                 std::function<void(ConnectResult)> on_done);

  /// Pure planning variant used by tests: same decision procedure, but the
  /// punch coin-flip uses the provided rng and no simulated time elapses.
  ConnectResult plan(NodeId initiator, NodeId target, common::Rng& rng) const;

  const TraversalPolicy& policy() const { return policy_; }

 private:
  ConnectResult decide(NodeId initiator, NodeId target, common::Rng& rng) const;

  Network& net_;
  NodeId rendezvous_;
  TraversalPolicy policy_;
  std::unordered_map<NodeId, NatProfile> profiles_;
  std::function<std::optional<NodeId>(NodeId, NodeId)> relay_provider_;
  mutable common::Rng punch_rng_;
};

}  // namespace vcmr::net
