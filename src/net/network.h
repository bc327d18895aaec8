#pragma once
// Flow-level network simulator.
//
// Stands in for the paper's Emulab testbed (§IV.A: ~40 machines on 100 Mbit
// interfaces). Each node has an asymmetric access link to an uncongested
// core; a transfer is a *flow* that consumes the sender's uplink and the
// receiver's downlink (and, when relayed, the relay's both directions).
// Bandwidth is divided by progressive filling (max-min fairness), the
// steady-state behaviour of competing TCP flows — the granularity at which
// the paper's effects (data-server bottleneck, inter-client offload) live.
//
// TCP-Nice (§III.D future work) is modelled by a two-class allocator:
// kBackground flows receive only capacity left over after all kForeground
// flows are allocated, emulating Nice's yield-to-foreground behaviour.
//
// The allocator is *incremental*: a per-resource index (access-link key →
// flows using it) lets every flow start/finish/cancel/degrade re-level only
// the connected component of flows that share resources — transitively —
// with the changed ones. Max-min rates in one component are independent of
// every other component, so flows outside it keep both their rates and
// their already-scheduled completion events. AllocMode::kGlobal re-levels
// everything on every change (the pre-incremental behaviour, kept as the
// bench baseline), and VCMR_NET_CHECK_ALLOC cross-checks each incremental
// pass against a full global water-filling oracle.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/simulation.h"

namespace vcmr::net {

/// Two-class priority used by the TCP-Nice model.
enum class FlowPriority { kForeground, kBackground };

/// How reallocate() scopes its work. kIncremental (the default) re-levels
/// only the dirty connected component; kGlobal re-levels every flow on
/// every change. Both modes compute bit-identical rates, milestones, and
/// traffic counters — kGlobal exists as the oracle for the property suite
/// and the baseline row in bench_scale.
enum class AllocMode { kIncremental, kGlobal };

struct NodeConfig {
  double up_bps = 100e6 / 8;    ///< uplink capacity, bytes/s (default 100 Mbit)
  double down_bps = 100e6 / 8;  ///< downlink capacity, bytes/s
  SimTime latency = SimTime::millis(10);  ///< one-way to the core
  std::string name;             ///< for traces; auto-generated when empty
};

/// Why a flow or message failed.
enum class NetError {
  kNodeOffline,       ///< an endpoint (or relay) went offline mid-transfer
  kInjectedFailure,   ///< failure injection (models resets, broken paths)
  kCancelled,         ///< caller cancelled
  kPartitioned,       ///< endpoints are in different partition classes
};
const char* to_string(NetError e);

struct FlowSpec {
  NodeId src;                    ///< sender
  NodeId dst;                    ///< receiver
  Bytes bytes = 0;
  FlowPriority priority = FlowPriority::kForeground;
  std::optional<NodeId> relay;   ///< traffic additionally traverses this node
  std::function<void()> on_complete;
  std::function<void(NetError)> on_fail;
};

/// Cumulative per-node traffic counters (server-offload metric in E6).
struct NodeTraffic {
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
  Bytes bytes_relayed = 0;
};

class Network {
 public:
  explicit Network(sim::Simulation& sim);

  // --- topology ---------------------------------------------------------
  NodeId add_node(const NodeConfig& cfg);

  void set_online(NodeId id, bool online);
  bool online(NodeId id) const;

  /// Bandwidth degradation (fault injection): scale the node's access-link
  /// capacity (both directions) to `scale` of nominal. Active flows are
  /// settled and re-enter the max-min fair-share allocation at the new
  /// capacity instead of failing; 1.0 restores nominal. Requires scale > 0.
  void set_link_scale(NodeId id, double scale);
  double link_scale(NodeId id) const;

  /// Network partitions (fault injection): nodes in different classes
  /// cannot exchange flows or messages. All nodes start in class 0;
  /// changing a node's class fails its flows that now cross the cut.
  void set_partition_class(NodeId id, int cls);
  /// Both endpoints online and in the same partition class.
  bool reachable(NodeId a, NodeId b) const;

  /// One-way latency of a node's access path.
  SimTime latency(NodeId id) const;
  double up_bps(NodeId id) const;
  double down_bps(NodeId id) const;
  /// Round-trip time between two nodes through the core.
  SimTime rtt(NodeId a, NodeId b) const;

  // --- data flows -------------------------------------------------------
  /// Starts a bulk transfer; completion/failure is reported via callbacks.
  /// Returns an id usable with cancel_flow().
  FlowId start_flow(FlowSpec spec);
  void cancel_flow(FlowId id);
  bool flow_active(FlowId id) const;
  /// Instantaneous allocated rate, bytes/s (0 if not active).
  double flow_rate(FlowId id) const;
  std::size_t active_flow_count() const { return flows_.size(); }
  /// Instantaneous egress/ingress rate of a node, bytes/s, summed over the
  /// flows currently using its links (utilization timelines).
  double instantaneous_tx_bps(NodeId id) const;
  double instantaneous_rx_bps(NodeId id) const;

  // --- small messages ---------------------------------------------------
  /// Latency-bound delivery for control messages (scheduler RPCs etc.);
  /// does not contend with data flows. Fails if either node is offline at
  /// send or delivery time.
  void send_message(NodeId from, NodeId to, Bytes size,
                    std::function<void()> on_delivered,
                    std::function<void(NetError)> on_fail = nullptr);

  // --- failure injection ------------------------------------------------
  /// Each subsequently started flow independently fails mid-transfer with
  /// this probability (draws from stream "net.flowfail").
  void set_flow_failure_rate(double p) { flow_failure_rate_ = p; }
  /// Restrict injected failures to flows where neither endpoint is `except`
  /// (lets tests break only inter-client paths while server paths stay up).
  void set_failure_exempt_node(NodeId id) { failure_exempt_ = id; }
  /// Fault injection: consulted once per send_message when set; returning
  /// true drops the message (the sender sees kInjectedFailure). Unset by
  /// default so fault-free runs make no extra RNG draws.
  void set_message_drop_hook(std::function<bool()> hook) {
    message_drop_ = std::move(hook);
  }

  // --- allocator scoping ------------------------------------------------
  void set_alloc_mode(AllocMode m) { alloc_mode_ = m; }
  AllocMode alloc_mode() const { return alloc_mode_; }
  /// Debug cross-check: after every reallocation, recompute the full global
  /// water-filling and require every active flow's rate to match exactly.
  /// Also enabled by the VCMR_NET_CHECK_ALLOC environment variable.
  void set_check_alloc(bool on) { check_alloc_ = on; }

  // --- accounting -------------------------------------------------------
  const NodeTraffic& traffic(NodeId id) const;
  /// Total bytes moved by completed flows.
  Bytes total_bytes_transferred() const { return total_bytes_; }

  sim::Simulation& sim() { return sim_; }

 private:
  struct Node {
    NodeConfig cfg;
    bool online = true;
    int partition = 0;
    /// Degradation factor applied to both link directions. Exactly 1.0 by
    /// default: multiplying by it is a bit-exact no-op, so fault-free runs
    /// stay identical to builds without degradation support.
    double link_scale = 1.0;
    NodeTraffic traffic;
  };

  /// A flow's access-link resources as dense indices (see up_res/down_res),
  /// in fill order: sender uplink, receiver downlink, then for a relayed
  /// flow the relay's downlink and uplink. Fixed for the flow's lifetime.
  struct Resources {
    std::array<std::uint32_t, 4> r{};
    std::uint32_t n = 0;

    const std::uint32_t* begin() const { return r.data(); }
    const std::uint32_t* end() const { return r.data() + n; }
  };

  struct Flow {
    FlowSpec spec;
    Resources res;
    Bytes done = 0;
    double rate = 0.0;           ///< bytes/s under current allocation
    /// Progress anchor: `done` at any instant is anchor_done plus the bytes
    /// accrued at `rate` since anchor_time, rounded once. Re-anchored only
    /// when the rate changes, so the bytes a settle credits depend on
    /// (anchor, rate, now) alone — not on how many intermediate
    /// reallocations happened to settle the flow along the way. That
    /// path-independence is what lets incremental and global modes agree
    /// bit-for-bit on every counter.
    Bytes anchor_done = 0;
    SimTime anchor_time;
    bool leveled = false;        ///< been through the allocator at least once
    /// The pending `completion` event is the injected failure, not the end
    /// of the transfer. Kept here so the event's callback is just
    /// (this, id) and fits std::function's small buffer.
    bool fails = false;
    sim::EventHandle completion;
    Bytes fail_after_bytes = -1;  ///< injected failure threshold; -1 = none
    std::uint64_t mark = 0;       ///< component_of() visit epoch
    std::uint32_t slot = 0;       ///< level() scratch: index in its component
  };
  using FlowEntry = std::map<FlowId, Flow>::value_type;

  /// One direction of one access link. `flows` is the allocator's index,
  /// sorted by FlowId (ids only grow, so a new flow appends); it points
  /// into flows_, whose map nodes never move. The other fields are
  /// component_of()/level() scratch, meaningful only for the links of the
  /// component in hand.
  struct Link {
    std::vector<FlowEntry*> flows;
    double cap = 0.0;        ///< remaining capacity during a fill
    int users = 0;           ///< pending flows of the class being filled
    std::uint64_t mark = 0;  ///< last component_of()/level() epoch seen
  };

  /// Next scheduled progress point of a flow: either the armed injected
  /// failure (strictly inside the transfer and not yet reached) or normal
  /// completion. Centralising this fixes the boundary bug where a threshold
  /// equal to the flow size — always the case for a zero-byte flow selected
  /// for injection — was misreported as kInjectedFailure.
  struct Milestone {
    Bytes target = 0;
    bool is_failure = false;
  };
  static Milestone milestone_of(const Flow& f);

  Node& node(NodeId id);
  const Node& node(NodeId id) const;

  /// Settle traffic accounting to `now` from the flow's anchor.
  void settle(Flow& f);
  /// Re-level the connected component reachable from the dirty links
  /// (every flow in kGlobal mode): water-fill the component, then, in
  /// FlowId order, settle, re-anchor and reschedule each flow whose rate
  /// actually changed. A pending milestone event moves in place
  /// (Simulation::reschedule), keeping the slot and sequence number
  /// cancel-then-at would give it. Unchanged flows are left entirely
  /// alone — same rate, same pending completion event.
  void reallocate(const Resources& dirty);
  /// Flows sharing links, transitively, with the dirty ones, into `comp`
  /// in discovery order (not FlowId order). The result is closed: every
  /// flow on one of its links is in it.
  void component_of(const Resources& dirty, std::vector<FlowEntry*>& comp);
  /// Two-class progressive filling restricted to `comp`; rate[i] is
  /// comp[i]'s rate. `comp` may come in any order but must be closed under
  /// link sharing (every flow on one of its links is in it), as
  /// component_of(), kGlobal and the oracle check guarantee: a round
  /// freezes the flows it finds in the bottleneck link's index. Max-min
  /// rates of a connected component do not depend on flows outside it, and
  /// the restricted fill performs the identical floating-point operations
  /// the global fill would on this component, so the result is bit-equal.
  void level(const std::vector<FlowEntry*>& comp, std::vector<double>& rate);
  /// VCMR_NET_CHECK_ALLOC: compare every stored rate against a fresh global
  /// water-filling; throws on any mismatch.
  void check_against_oracle();
  /// Fires a flow's pending milestone: completion or injected failure.
  void reach_milestone(FlowId id);

  void index_flow(FlowEntry& e);
  void unindex_flow(const FlowEntry& e);

  void complete_flow(FlowId id);
  void fail_flow(FlowId id, NetError err);
  /// Fails every flow that traverses `id` (endpoint or relay).
  void fail_flows_touching(NodeId id);
  /// Fails every flow whose endpoints/relay now span partition classes.
  void fail_partitioned_flows();

  /// Dense link index: 2·node for the uplink, 2·node + 1 for the downlink.
  static std::uint32_t up_res(NodeId id) {
    return static_cast<std::uint32_t>(2 * id.value());
  }
  static std::uint32_t down_res(NodeId id) { return up_res(id) + 1; }
  /// Bottleneck tie-break order: level() picks the smallest key, +node for
  /// an uplink and -node-1 for a downlink, which keeps every rate equal to
  /// the one the committed fingerprints were recorded with.
  static std::int64_t tie_key(std::uint32_t r) {
    const auto n = static_cast<std::int64_t>(r / 2);
    return r % 2 == 0 ? n : -n - 1;
  }
  static Resources resources_of(const FlowSpec& spec);
  double link_capacity(std::uint32_t r) const;
  /// Grows links_ to cover every node. Called where a link is first
  /// needed rather than in add_node(), so building a topology makes one
  /// allocation for the index instead of one per doubling.
  void size_links();

  sim::Simulation& sim_;
  std::vector<Node> nodes_;
  std::map<FlowId, Flow> flows_;  ///< ordered: deterministic iteration
  std::vector<Link> links_;       ///< by up_res()/down_res(); see size_links()
  std::uint64_t epoch_ = 0;       ///< visit stamp for Link/Flow::mark
  // reallocate()/level() working storage, reused across calls.
  std::vector<FlowEntry*> comp_;
  std::vector<double> rates_;
  std::vector<std::pair<FlowEntry*, double>> rerated_;  ///< (flow, new rate)
  std::vector<std::uint32_t> frontier_;
  std::vector<std::uint32_t> comp_links_;
  std::vector<std::uint8_t> pending_;  ///< by Flow::slot, during level()
  std::int64_t next_flow_id_ = 1;
  AllocMode alloc_mode_ = AllocMode::kIncremental;
  bool check_alloc_ = false;
  double flow_failure_rate_ = 0.0;
  NodeId failure_exempt_ = NodeId::invalid();
  std::function<bool()> message_drop_;
  common::Rng fail_rng_;
  Bytes total_bytes_ = 0;
};

}  // namespace vcmr::net
