#include "client/interclient.h"

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace vcmr::client {

namespace {
common::Logger log_("interclient");

obs::Counter& ic_counter(const char* name) {
  return obs::MetricsRegistry::instance().counter("interclient", name);
}
}

// --- PeerRegistry -------------------------------------------------------------

void PeerRegistry::add(net::Endpoint ep, MapOutputServer* server) {
  require(server != nullptr, "PeerRegistry::add: null server");
  servers_[ep] = server;
}

void PeerRegistry::remove(net::Endpoint ep) { servers_.erase(ep); }

MapOutputServer* PeerRegistry::find(net::Endpoint ep) const {
  const auto it = servers_.find(ep);
  return it == servers_.end() ? nullptr : it->second;
}

// --- MapOutputServer -----------------------------------------------------------

MapOutputServer::MapOutputServer(sim::Simulation& sim, net::Network& net,
                                 NodeId node, net::Endpoint endpoint,
                                 PeerRegistry& registry,
                                 MapOutputServerConfig cfg)
    : sim_(sim),
      net_(net),
      node_(node),
      ep_(endpoint),
      registry_(registry),
      cfg_(cfg) {}

MapOutputServer::~MapOutputServer() { withdraw_all(); }

void MapOutputServer::offer(const std::string& name, mr::FilePayload payload) {
  if (!registered_) {
    registry_.add(ep_, this);
    registered_ = true;
  }
  Entry& e = files_[name];
  e.payload = std::move(payload);
  arm_timeout(name, e, SimTime::zero());
}

void MapOutputServer::arm_timeout(const std::string& name, Entry& e,
                                  SimTime horizon) {
  const SimTime at = sim_.now() + std::max(cfg_.serve_timeout, horizon);
  if (e.timeout.valid()) {
    // Pending until it fires, and firing withdraws the entry.
    e.timeout = sim_.reschedule(e.timeout, at);
    return;
  }
  e.timeout = sim_.at(at, [this, name] {
    log_.debug("serve timeout for ", name, "; withdrawing");
    withdraw(name);
  });
}

void MapOutputServer::reset_timeouts(SimTime horizon) {
  for (auto& [name, e] : files_) arm_timeout(name, e, horizon);
}

void MapOutputServer::withdraw(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) return;
  sim_.cancel(it->second.timeout);
  files_.erase(it);
  if (files_.empty() && registered_) {
    // "stop accepting connections when there are no more files available"
    registry_.remove(ep_);
    registered_ = false;
  }
}

std::vector<std::string> MapOutputServer::served_names() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, e] : files_) out.push_back(name);
  return out;
}

void MapOutputServer::withdraw_all() {
  while (!files_.empty()) withdraw(files_.begin()->first);
}

bool MapOutputServer::start_serving(
    NodeId requester, const std::string& name, std::optional<NodeId> relay,
    std::function<void(const mr::FilePayload&)> on_done,
    std::function<void(net::NetError)> on_fail) {
  const auto it = files_.find(name);
  if (it == files_.end()) {
    ic_counter("serve_rejected_missing").add();
    return false;
  }
  if (active_ >= cfg_.max_connections) {
    ic_counter("serve_rejected_busy").add();
    return false;
  }
  ++active_;
  // Activity resets the file's timeout.
  arm_timeout(name, it->second, SimTime::zero());

  mr::FilePayload payload = it->second.payload;
  net::FlowSpec fs;
  fs.src = node_;
  fs.dst = requester;
  fs.bytes = payload.size;
  fs.priority = cfg_.background_priority ? net::FlowPriority::kBackground
                                         : net::FlowPriority::kForeground;
  fs.relay = relay;
  fs.on_complete = [this, payload = std::move(payload),
                    on_done = std::move(on_done)] {
    --active_;
    ic_counter("files_served").add();
    ic_counter("bytes_served").add(payload.size);
    if (on_done) on_done(payload);
  };
  fs.on_fail = [this, on_fail = std::move(on_fail)](net::NetError err) {
    --active_;
    if (on_fail) on_fail(err);
  };
  net_.start_flow(std::move(fs));
  return true;
}

// --- PeerFetcher ------------------------------------------------------------------

PeerFetcher::PeerFetcher(sim::Simulation& sim, net::Network& net,
                         NodeId my_node, PeerRegistry& registry,
                         net::ConnectionEstablisher* establisher,
                         PeerFetchConfig cfg)
    : sim_(sim),
      net_(net),
      node_(my_node),
      registry_(registry),
      establisher_(establisher),
      cfg_(cfg) {}

std::uint64_t PeerFetcher::add(Fetch f) {
  const std::uint64_t id = next_fetch_++;
  fetches_.emplace(id, std::move(f));
  return id;
}

PeerFetcher::Fetch& PeerFetcher::record(std::uint64_t id) {
  const auto it = fetches_.find(id);
  require(it != fetches_.end(), "PeerFetcher: the fetch already ended");
  return it->second;
}

PeerFetcher::Fetches::node_type PeerFetcher::take(std::uint64_t id) {
  auto node = fetches_.extract(id);
  require(!node.empty(), "PeerFetcher: the fetch already ended");
  return node;
}

void PeerFetcher::fetch(net::Endpoint ep, const std::string& name,
                        std::function<void(const mr::FilePayload&)> on_done,
                        std::function<void(std::string)> on_fail) {
  attempt(add(Fetch{ep, name, cfg_.max_attempts, false, std::move(on_done),
                    std::move(on_fail)}));
}

void PeerFetcher::fetch_store(
    net::Endpoint ep, const std::string& name,
    std::function<void(const mr::FilePayload&)> on_done,
    std::function<void(std::string)> on_miss) {
  ic_counter("fetch_attempts").add();
  const std::uint64_t id =
      add(Fetch{ep, name, 1, true, std::move(on_done), std::move(on_miss)});
  if (establisher_ == nullptr && !net_.online(ep.node)) {
    // Even a dead probe costs a handshake RTT before it comes back empty.
    sim_.after(net_.rtt(node_, ep.node),
               [this, id] { failed(id, "peer offline"); });
    return;
  }
  connect(id);
}

void PeerFetcher::attempt(std::uint64_t id) {
  Fetch& f = record(id);
  if (f.tries_left <= 0) {
    ic_counter("fetch_failures").add();
    auto node = take(id);
    Fetch& done = node.mapped();
    if (done.on_fail) {
      done.on_fail("peer fetch attempts exhausted for " + done.name);
    }
    return;
  }
  ic_counter("fetch_attempts").add();
  if (establisher_ == nullptr && !net_.online(f.ep.node)) {
    failed(id, "peer offline");
    return;
  }
  connect(id);
}

void PeerFetcher::failed(std::uint64_t id, const std::string& why) {
  Fetch& f = record(id);
  if (f.store) {
    ic_counter("store_misses").add();
    log_.debug("store fetch of ", f.name, " missed (", why, ")");
    auto node = take(id);
    if (node.mapped().on_fail) node.mapped().on_fail(why);
    return;
  }
  log_.debug("peer fetch of ", f.name, " failed (", why, "); ",
             f.tries_left - 1, " attempts left");
  --f.tries_left;
  sim_.after(cfg_.retry_delay, [this, id] { attempt(id); });
}

void PeerFetcher::connect(std::uint64_t id) {
  const NodeId peer = record(id).ep.node;
  if (establisher_ == nullptr) {
    // Open-ports deployment: direct connection after one handshake RTT.
    sim_.after(net_.rtt(node_, peer),
               [this, id] { transfer(id, std::nullopt); });
    return;
  }
  establisher_->establish(node_, peer, [this, id](net::ConnectResult r) {
    if (!r.ok()) {
      failed(id, "connection establishment failed");
      return;
    }
    transfer(id, r.relay);
  });
}

void PeerFetcher::transfer(std::uint64_t id, std::optional<NodeId> relay) {
  const Fetch& f = record(id);
  MapOutputServer* server = registry_.find(f.ep);
  if (server == nullptr) {
    failed(id, "no listener at " + f.ep.str());
    return;
  }
  const bool accepted = server->start_serving(
      node_, f.name, relay,
      [this, id](const mr::FilePayload& p) { fetched(id, p); },
      [this, id](net::NetError err) { failed(id, net::to_string(err)); });
  if (!accepted) failed(id, "peer refused (busy or file withdrawn)");
}

void PeerFetcher::fetched(std::uint64_t id, const mr::FilePayload& p) {
  ic_counter("fetch_ok").add();
  ic_counter("bytes_fetched").add(p.size);
  auto node = take(id);
  if (node.mapped().on_done) node.mapped().on_done(p);
}

}  // namespace vcmr::client
