#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.h"

namespace vcmr::net {

const char* to_string(NetError e) {
  switch (e) {
    case NetError::kNodeOffline: return "node offline";
    case NetError::kInjectedFailure: return "injected failure";
    case NetError::kCancelled: return "cancelled";
    case NetError::kPartitioned: return "partitioned";
  }
  return "?";
}

Network::Network(sim::Simulation& sim)
    : sim_(sim), fail_rng_(sim.rng_stream("net.flowfail")) {
  check_alloc_ = std::getenv("VCMR_NET_CHECK_ALLOC") != nullptr;
}

NodeId Network::add_node(const NodeConfig& cfg) {
  const NodeId id{static_cast<std::int64_t>(nodes_.size())};
  Node n;
  n.cfg = cfg;
  if (n.cfg.name.empty()) n.cfg.name = "node" + std::to_string(id.value());
  require(n.cfg.up_bps > 0 && n.cfg.down_bps > 0,
          "Network::add_node: capacities must be positive");
  nodes_.push_back(std::move(n));
  return id;
}

Network::Node& Network::node(NodeId id) {
  require(id.valid() && static_cast<std::size_t>(id.value()) < nodes_.size(),
          "Network: unknown node id");
  return nodes_[static_cast<std::size_t>(id.value())];
}

const Network::Node& Network::node(NodeId id) const {
  require(id.valid() && static_cast<std::size_t>(id.value()) < nodes_.size(),
          "Network: unknown node id");
  return nodes_[static_cast<std::size_t>(id.value())];
}

void Network::set_online(NodeId id, bool online) {
  Node& n = node(id);
  if (n.online == online) return;
  n.online = online;
  if (!online) fail_flows_touching(id);
}

bool Network::online(NodeId id) const { return node(id).online; }

void Network::set_link_scale(NodeId id, double scale) {
  require(scale > 0, "Network::set_link_scale: scale must be positive");
  Node& n = node(id);
  if (n.link_scale == scale) return;
  n.link_scale = scale;
  size_links();
  reallocate(Resources{{up_res(id), down_res(id)}, 2});
}

double Network::link_scale(NodeId id) const { return node(id).link_scale; }

void Network::set_partition_class(NodeId id, int cls) {
  Node& n = node(id);
  if (n.partition == cls) return;
  n.partition = cls;
  fail_partitioned_flows();
}

bool Network::reachable(NodeId a, NodeId b) const {
  const Node& na = node(a);
  const Node& nb = node(b);
  return na.online && nb.online && na.partition == nb.partition;
}

SimTime Network::latency(NodeId id) const { return node(id).cfg.latency; }

double Network::up_bps(NodeId id) const { return node(id).cfg.up_bps; }
double Network::down_bps(NodeId id) const { return node(id).cfg.down_bps; }

SimTime Network::rtt(NodeId a, NodeId b) const {
  return (latency(a) + latency(b)) * 2.0;
}

const NodeTraffic& Network::traffic(NodeId id) const {
  return node(id).traffic;
}

Network::Resources Network::resources_of(const FlowSpec& spec) {
  if (!spec.relay) return Resources{{up_res(spec.src), down_res(spec.dst)}, 2};
  return Resources{{up_res(spec.src), down_res(spec.dst),
                    down_res(*spec.relay), up_res(*spec.relay)},
                   4};
}

void Network::size_links() {
  if (links_.size() < 2 * nodes_.size()) links_.resize(2 * nodes_.size());
}

double Network::link_capacity(std::uint32_t r) const {
  const Node& n = nodes_[r / 2];
  return (r % 2 == 0 ? n.cfg.up_bps : n.cfg.down_bps) * n.link_scale;
}

void Network::index_flow(FlowEntry& e) {
  // A relay that is also an endpoint lists one link twice; the entry then
  // appears twice there, and unindex_flow() removes both.
  for (const auto r : e.second.res) links_[r].flows.push_back(&e);
}

void Network::unindex_flow(const FlowEntry& e) {
  for (const auto r : e.second.res) {
    auto& flows = links_[r].flows;
    flows.erase(std::lower_bound(
        flows.begin(), flows.end(), e.first,
        [](const FlowEntry* a, FlowId id) { return a->first < id; }));
  }
}

FlowId Network::start_flow(FlowSpec spec) {
  require(spec.bytes >= 0, "start_flow: negative size");
  const FlowId id{next_flow_id_++};

  const auto refuse = [this, &spec](NetError err) {
    // Report asynchronously so callers never re-enter themselves.
    auto on_fail = spec.on_fail;
    sim_.after(SimTime::zero(), [on_fail, err] {
      if (on_fail) on_fail(err);
    });
  };
  if (!online(spec.src) || !online(spec.dst) ||
      (spec.relay && !online(*spec.relay))) {
    refuse(NetError::kNodeOffline);
    return id;
  }
  if (!reachable(spec.src, spec.dst) ||
      (spec.relay && (!reachable(spec.src, *spec.relay) ||
                      !reachable(*spec.relay, spec.dst)))) {
    refuse(NetError::kPartitioned);
    return id;
  }

  Flow f;
  f.spec = std::move(spec);
  f.res = resources_of(f.spec);
  f.anchor_time = sim_.now();
  if (flow_failure_rate_ > 0.0 &&
      f.spec.src != failure_exempt_ && f.spec.dst != failure_exempt_ &&
      fail_rng_.chance(flow_failure_rate_)) {
    // Fail at a uniformly random progress point.
    f.fail_after_bytes = static_cast<Bytes>(
        fail_rng_.uniform() * static_cast<double>(f.spec.bytes));
  }
  size_links();
  const Resources dirty = f.res;
  index_flow(*flows_.emplace(id, std::move(f)).first);
  reallocate(dirty);
  return id;
}

void Network::cancel_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle(it->second);
  sim_.cancel(it->second.completion);
  const Resources dirty = it->second.res;
  unindex_flow(*it);
  flows_.erase(it);
  reallocate(dirty);
}

bool Network::flow_active(FlowId id) const { return flows_.count(id) > 0; }

double Network::flow_rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

double Network::instantaneous_tx_bps(NodeId id) const {
  double rate = 0;
  for (const auto& [fid, f] : flows_) {
    if (f.spec.src == id) rate += f.rate;
    if (f.spec.relay && *f.spec.relay == id) rate += f.rate;
  }
  return rate;
}

double Network::instantaneous_rx_bps(NodeId id) const {
  double rate = 0;
  for (const auto& [fid, f] : flows_) {
    if (f.spec.dst == id) rate += f.rate;
    if (f.spec.relay && *f.spec.relay == id) rate += f.rate;
  }
  return rate;
}

void Network::settle(Flow& f) {
  const SimTime now = sim_.now();
  if (f.rate > 0.0 && now > f.anchor_time) {
    const double dt = (now - f.anchor_time).as_seconds();
    Bytes target = f.anchor_done + static_cast<Bytes>(std::llround(f.rate * dt));
    target = std::min(target, f.spec.bytes);
    if (target > f.done) {
      const Bytes delta = target - f.done;
      node(f.spec.src).traffic.bytes_sent += delta;
      node(f.spec.dst).traffic.bytes_received += delta;
      if (f.spec.relay) node(*f.spec.relay).traffic.bytes_relayed += delta;
      total_bytes_ += delta;
      f.done = target;
    }
  }
}

Network::Milestone Network::milestone_of(const Flow& f) {
  // The injection is armed only for thresholds strictly inside the
  // transfer: a draw that lands exactly on spec.bytes (guaranteed for a
  // zero-byte flow) is a completion, never a failure. The pre-helper code
  // applied this guard on the scheduling path but not on the already-past-
  // milestone path, so such flows misreported kInjectedFailure.
  const bool armed =
      f.fail_after_bytes >= 0 && f.fail_after_bytes < f.spec.bytes;
  if (armed && f.done < f.fail_after_bytes) return {f.fail_after_bytes, true};
  return {f.spec.bytes, false};
}

void Network::component_of(const Resources& dirty,
                           std::vector<FlowEntry*>& comp) {
  const std::uint64_t epoch = ++epoch_;
  comp.clear();
  frontier_.clear();
  const auto visit = [&](std::uint32_t r) {
    if (links_[r].mark == epoch) return;
    links_[r].mark = epoch;
    frontier_.push_back(r);
  };
  for (const auto r : dirty) visit(r);
  while (!frontier_.empty()) {
    const auto r = frontier_.back();
    frontier_.pop_back();
    for (FlowEntry* e : links_[r].flows) {
      Flow& f = e->second;
      if (f.mark == epoch) continue;
      f.mark = epoch;
      comp.push_back(e);
      for (const auto r2 : f.res) visit(r2);
    }
  }
}

void Network::level(const std::vector<FlowEntry*>& comp,
                    std::vector<double>& rate) {
  // Progressive filling, foreground first, background on the residue. The
  // floating-point operations are a contract (pinned bit-for-bit by the
  // AllocOracle suites): the bottleneck is the smallest max(0, cap) / users
  // with ties to the smallest tie_key(), and each flow a round freezes has
  // that round's fair share taken off every link it lists, once per
  // listing. Every subtraction within a round is the same share, so neither
  // the order of `comp` nor the order of a link's index can change a bit.
  rate.assign(comp.size(), 0.0);
  pending_.resize(comp.size());
  const std::uint64_t epoch = ++epoch_;
  comp_links_.clear();
  bool background = false;
  for (std::size_t i = 0; i < comp.size(); ++i) {
    Flow& f = comp[i]->second;
    f.slot = static_cast<std::uint32_t>(i);
    background |= f.spec.priority == FlowPriority::kBackground;
    for (const auto r : f.res) {
      Link& l = links_[r];
      if (l.mark == epoch) continue;
      l.mark = epoch;
      l.cap = link_capacity(r);
      comp_links_.push_back(r);
    }
  }

  for (const FlowPriority cls :
       {FlowPriority::kForeground, FlowPriority::kBackground}) {
    if (cls == FlowPriority::kBackground && !background) break;
    // Flows of this class still awaiting a rate, and per link the number
    // of them crossing it.
    std::size_t left = 0;
    for (const auto r : comp_links_) links_[r].users = 0;
    for (std::size_t i = 0; i < comp.size(); ++i) {
      const Flow& f = comp[i]->second;
      pending_[i] = f.spec.priority == cls;
      if (!pending_[i]) continue;
      ++left;
      for (const auto r : f.res) ++links_[r].users;
    }
    while (left > 0) {
      // Find the bottleneck: link with the smallest fair share.
      double best_share = std::numeric_limits<double>::infinity();
      std::uint32_t best_r = 0;
      for (const auto r : comp_links_) {
        const Link& l = links_[r];
        if (l.users <= 0) continue;
        const double share = std::max(0.0, l.cap) / l.users;
        if (share < best_share ||
            (share == best_share && tie_key(r) < tie_key(best_r))) {
          best_share = share;
          best_r = r;
        }
      }
      if (!std::isfinite(best_share)) break;
      // Freeze every pending flow crossing the bottleneck at the fair share.
      // The component is closed, so each flow in the link's index has its
      // slot; one listing the link twice is met twice and frozen once.
      for (FlowEntry* e : links_[best_r].flows) {
        Flow& f = e->second;
        if (!pending_[f.slot]) continue;
        pending_[f.slot] = 0;
        --left;
        rate[f.slot] = best_share;
        for (const auto r : f.res) {
          links_[r].cap -= best_share;
          --links_[r].users;
        }
      }
    }
  }
}

void Network::reallocate(const Resources& dirty) {
  // 1. The flows whose allocation can have changed: the connected component
  // around the dirty links (everything in kGlobal mode).
  if (alloc_mode_ == AllocMode::kGlobal) {
    comp_.clear();
    for (auto& e : flows_) comp_.push_back(&e);
  } else {
    component_of(dirty, comp_);
  }

  if (!comp_.empty()) {
    // 2. Water-fill the component alone.
    level(comp_, rates_);

    // 3. Apply. A flow whose rate comes out bit-identical keeps its anchor
    // and its scheduled completion event untouched; only actual rate
    // changes settle, re-anchor, and reschedule. Because kGlobal levels a
    // superset but every extra flow's rate is unchanged by construction,
    // both modes perform the same mutations here. The re-rated flows go in
    // FlowId order: that order hands out their events' sequence numbers,
    // which break ties between completions at one instant.
    rerated_.clear();
    for (std::size_t i = 0; i < comp_.size(); ++i) {
      const Flow& f = comp_[i]->second;
      double r = rates_[i];
      if (r < 1e-3) {
        // Stalled (starved background class) or floating-point residue from
        // the water-filling subtraction; a sub-millibyte/s rate would also
        // overflow SimTime when converted to a completion instant.
        r = 0.0;
      }
      if (f.leveled && r == f.rate) continue;
      rerated_.emplace_back(comp_[i], r);
    }
    std::sort(rerated_.begin(), rerated_.end(),
              [](const auto& a, const auto& b) {
                return a.first->first < b.first->first;
              });

    const SimTime now = sim_.now();
    for (const auto& [e, r] : rerated_) {
      const FlowId id = e->first;
      Flow& f = e->second;
      settle(f);  // credit progress at the old rate, then re-anchor
      f.anchor_done = f.done;
      f.anchor_time = now;
      f.rate = r;
      f.leveled = true;

      // A milestone already reached fires now; milestone_of() never
      // reports an armed threshold at or past `done`, so that is always a
      // completion.
      const Milestone m = milestone_of(f);
      const Bytes left = m.target - f.done;
      f.fails = m.is_failure;
      SimTime at = now;
      if (left > 0) {
        if (f.rate == 0.0) {  // stalls until a later re-level
          sim_.cancel(f.completion);
          f.completion = sim::EventHandle{};
          continue;
        }
        at = now + SimTime::seconds(static_cast<double>(left) / f.rate);
      }
      // A live flow's handle is pending or empty: its milestone event
      // removes the flow when it fires. Moving the pending event gives it
      // the slot and sequence number cancel-then-at would.
      f.completion = f.completion.valid()
                         ? sim_.reschedule(f.completion, at)
                         : sim_.at(at, [this, id] { reach_milestone(id); });
    }
  }

  if (check_alloc_) check_against_oracle();
}

void Network::check_against_oracle() {
  std::vector<FlowEntry*> all;
  for (auto& e : flows_) all.push_back(&e);
  std::vector<double> oracle;
  level(all, oracle);
  for (std::size_t i = 0; i < all.size(); ++i) {
    double r = oracle[i];
    if (r < 1e-3) r = 0.0;
    require(r == all[i]->second.rate,
            "VCMR_NET_CHECK_ALLOC: incremental allocation diverged from the "
            "global water-filling oracle");
  }
}

void Network::reach_milestone(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  if (it->second.fails) {
    fail_flow(id, NetError::kInjectedFailure);
  } else {
    complete_flow(id);
  }
}

void Network::complete_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle(it->second);
  // Rounding can leave a few bytes unaccounted; attribute them now so the
  // counters always sum to the flow size.
  Flow& f = it->second;
  const Bytes slack = f.spec.bytes - f.done;
  if (slack != 0) {
    node(f.spec.src).traffic.bytes_sent += slack;
    node(f.spec.dst).traffic.bytes_received += slack;
    if (f.spec.relay) node(*f.spec.relay).traffic.bytes_relayed += slack;
    total_bytes_ += slack;
    f.done = f.spec.bytes;
  }
  auto cb = std::move(f.spec.on_complete);
  const Resources dirty = f.res;
  unindex_flow(*it);
  flows_.erase(it);
  reallocate(dirty);
  if (cb) cb();
}

void Network::fail_flow(FlowId id, NetError err) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle(it->second);
  auto cb = std::move(it->second.spec.on_fail);
  sim_.cancel(it->second.completion);
  const Resources dirty = it->second.res;
  unindex_flow(*it);
  flows_.erase(it);
  reallocate(dirty);
  if (cb) cb(err);
}

void Network::fail_flows_touching(NodeId id) {
  // A flow traverses `id` as sender or relay (its uplink) or as receiver
  // or relay (its downlink), so the two index entries list every doomed
  // flow; fail them in FlowId order.
  size_links();
  std::vector<FlowId> doomed;
  for (const auto r : {up_res(id), down_res(id)}) {
    for (const FlowEntry* e : links_[r].flows) doomed.push_back(e->first);
  }
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  for (const FlowId fid : doomed) fail_flow(fid, NetError::kNodeOffline);
}

void Network::fail_partitioned_flows() {
  std::vector<FlowId> doomed;
  for (const auto& [fid, f] : flows_) {
    const bool cut =
        !reachable(f.spec.src, f.spec.dst) ||
        (f.spec.relay && (!reachable(f.spec.src, *f.spec.relay) ||
                          !reachable(*f.spec.relay, f.spec.dst)));
    if (cut) doomed.push_back(fid);
  }
  for (const FlowId fid : doomed) fail_flow(fid, NetError::kPartitioned);
}

void Network::send_message(NodeId from, NodeId to, Bytes size,
                           std::function<void()> on_delivered,
                           std::function<void(NetError)> on_fail) {
  const auto refuse = [this, &on_fail](NetError err) {
    sim_.after(SimTime::zero(), [on_fail, err] {
      if (on_fail) on_fail(err);
    });
  };
  if (!online(from) || !online(to)) {
    refuse(NetError::kNodeOffline);
    return;
  }
  if (!reachable(from, to)) {
    refuse(NetError::kPartitioned);
    return;
  }
  if (message_drop_ && message_drop_()) {
    refuse(NetError::kInjectedFailure);
    return;
  }
  // Control messages are latency-bound: propagation plus serialisation at
  // the slower of the two access links (degradation-scaled); they do not
  // contend with data flows.
  const double ser_rate =
      std::min(node(from).cfg.up_bps * node(from).link_scale,
               node(to).cfg.down_bps * node(to).link_scale);
  const SimTime delay = latency(from) + latency(to) +
                        SimTime::seconds(static_cast<double>(size) / ser_rate);
  sim_.after(delay, [this, from, to, on_delivered = std::move(on_delivered),
                     on_fail = std::move(on_fail)] {
    if (!online(to)) {
      if (on_fail) on_fail(NetError::kNodeOffline);
      return;
    }
    // In-flight messages still land if the sender dropped off, but not
    // across a partition that formed while they were in the air.
    if (node(from).partition != node(to).partition) {
      if (on_fail) on_fail(NetError::kPartitioned);
      return;
    }
    if (on_delivered) on_delivered();
  });
}

}  // namespace vcmr::net
