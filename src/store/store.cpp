#include "store/store.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace vcmr::store {

namespace {

obs::Labels shard_labels(std::size_t shard) {
  return {{"shard", std::to_string(shard)}};
}

}  // namespace

StorageTier::StorageTier(net::HttpService& http, NodeId primary_node, int port)
    : http_(http), port_(port) {
  add_shard(primary_node);
}

StorageTier::~StorageTier() {
  for (const Shard& s : shards_) http_.stop_listening(s.ep);
}

void StorageTier::add_shard(NodeId node) {
  require(!placed_,
          "StorageTier::add_shard: add shards before staging or uploading "
          "any file");
  // The handler captures the shard's index: shards_ may reallocate.
  const std::size_t s = shards_.size();
  shards_.push_back(Shard{net::Endpoint{node, port_}, {}, true});
  http_.listen(shards_.back().ep,
               [this, s](const net::HttpRequest& req,
                         const net::HttpRespondFn& respond) {
                 serve(s, req, respond);
               });
}

int StorageTier::shard_for(const std::string& name) const {
  if (shards_.size() == 1) return 0;
  return static_cast<int>(common::fnv1a64(name) % shards_.size());
}

void StorageTier::serve(std::size_t s, const net::HttpRequest& req,
                        const net::HttpRespondFn& respond) {
  const Shard& shard = shards_[s];
  if (!shard.up) {
    ++rejected_unavailable_;
    respond(net::HttpResponse{503, 0, {}});
    return;
  }
  if (req.method == "GET" && common::starts_with(req.path, "/download/")) {
    const auto it = shard.files.find(req.path.substr(10));
    if (it == shard.files.end()) {
      respond(net::HttpResponse::not_found());
      return;
    }
    bytes_served_ += it->second.size;
    respond(net::HttpResponse{200, it->second.size, {}});
    return;
  }
  if (req.method == "POST" && common::starts_with(req.path, "/upload/")) {
    // The body flow has already been charged to the network by the time the
    // handler runs; upload() stores the payload when this answer arrives
    // (one process, no real bytes to move).
    respond(net::HttpResponse{});
    return;
  }
  respond(net::HttpResponse{400, 0, {}});
}

void StorageTier::stage(const std::string& name, mr::FilePayload payload) {
  require(!name.empty(), "StorageTier::stage: empty file name");
  placed_ = true;
  shards_[static_cast<std::size_t>(shard_for(name))].files[name] =
      std::move(payload);
}

const mr::FilePayload* StorageTier::payload(const std::string& name) const {
  const auto& files = shards_[static_cast<std::size_t>(shard_for(name))].files;
  const auto it = files.find(name);
  return it == files.end() ? nullptr : &it->second;
}

void StorageTier::download(NodeId client, const std::string& name,
                           std::function<void(const mr::FilePayload&)> on_done,
                           std::function<void(std::string)> on_fail) {
  net::HttpRequest req;
  req.method = "GET";
  req.path = "/download/" + name;
  Transfer t;
  t.shard = static_cast<std::size_t>(shard_for(name));
  t.name = name;
  t.on_downloaded = std::move(on_done);
  t.on_fail = std::move(on_fail);
  start(client, std::move(req), std::move(t));
}

void StorageTier::upload(NodeId client, const std::string& name,
                         mr::FilePayload payload, std::function<void()> on_done,
                         std::function<void(std::string)> on_fail) {
  placed_ = true;
  net::HttpRequest req;
  req.method = "POST";
  req.path = "/upload/" + name;
  req.body_size = payload.size;
  Transfer t;
  t.upload = true;
  t.shard = static_cast<std::size_t>(shard_for(name));
  t.name = name;
  t.payload = std::move(payload);
  t.on_uploaded = std::move(on_done);
  t.on_fail = std::move(on_fail);
  start(client, std::move(req), std::move(t));
}

void StorageTier::start(NodeId client, net::HttpRequest req, Transfer t) {
  const std::uint64_t id = next_transfer_++;
  const net::Endpoint ep = shards_[t.shard].ep;
  transfers_.emplace(id, std::move(t));
  http_.request(
      client, ep, std::move(req),
      [this, id](const net::HttpResponse& resp) { answered(id, resp); },
      [this, id](net::NetError err) { failed(id, err); });
}

StorageTier::Transfers::node_type StorageTier::take(std::uint64_t id) {
  auto node = transfers_.extract(id);
  require(!node.empty(), "StorageTier: the transfer already ended");
  return node;
}

void StorageTier::answered(std::uint64_t id, const net::HttpResponse& resp) {
  auto node = take(id);
  Transfer& t = node.mapped();
  if (!resp.ok()) {
    // A refused upload (e.g. 503 during an outage) must surface as a
    // failure, or the client's transfer would hang forever.
    if (t.on_fail) {
      t.on_fail("HTTP " + std::to_string(resp.status) + " for " + t.name);
    }
    return;
  }
  auto& reg = obs::MetricsRegistry::instance();
  if (t.upload) {
    reg.counter("store", "ingress_bytes", shard_labels(t.shard))
        .add(t.payload.size);
    reg.counter("store", "tier_ingress_bytes", {{"tier", "project"}})
        .add(t.payload.size);
    shards_[t.shard].files[t.name] = std::move(t.payload);
    if (t.on_uploaded) t.on_uploaded();
    return;
  }
  const auto& files = shards_[t.shard].files;
  const auto it = files.find(t.name);
  if (it == files.end()) {
    if (t.on_fail) t.on_fail("file disappeared mid-download: " + t.name);
    return;
  }
  const mr::FilePayload& p = it->second;
  reg.counter("store", "egress_bytes", shard_labels(t.shard)).add(p.size);
  reg.counter("store", "tier_egress_bytes", {{"tier", "project"}})
      .add(p.size);
  if (t.on_downloaded) t.on_downloaded(p);
}

void StorageTier::failed(std::uint64_t id, net::NetError err) {
  auto node = take(id);
  Transfer& t = node.mapped();
  if (t.on_fail) t.on_fail(std::string(net::to_string(err)) + " for " + t.name);
}

void StorageTier::set_available(int shard, bool up) {
  if (shard < 0) {
    for (Shard& s : shards_) s.up = up;
    return;
  }
  require(shard < static_cast<int>(shards_.size()),
          "StorageTier::set_available: shard out of range");
  shards_[static_cast<std::size_t>(shard)].up = up;
}

// --- ReplicaDirectory --------------------------------------------------------

void ReplicaDirectory::update(HostId host, common::BloomFilter filter,
                              net::Endpoint endpoint, SimTime now) {
  if (filter.fill_ratio() == 0.0) {  // serves nothing (e.g. fresh after crash)
    entries_.erase(host);
    return;
  }
  entries_[host] = Entry{std::move(filter), endpoint, now};
}

void ReplicaDirectory::remove(HostId host) { entries_.erase(host); }

bool ReplicaDirectory::serves(HostId host, const std::string& name) const {
  const auto it = entries_.find(host);
  return it != entries_.end() && it->second.filter.maybe_contains(name);
}

void ReplicaDirectory::clear() { entries_.clear(); }

std::vector<ReplicaDirectory::Source> ReplicaDirectory::lookup(
    const std::string& name, SimTime now, SimTime ttl, HostId except, int max,
    const std::function<bool(HostId)>& allow) {
  // Candidates carry their advert age so the freshest hosts win the `max`
  // slots: a churned-off volunteer stops polling and its last_seen lags,
  // while a live one refreshes every RPC — recency is the cheapest liveness
  // signal the scheduler has.
  struct Candidate {
    SimTime last_seen;
    Source source;
  };
  std::vector<Candidate> found;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.last_seen + ttl < now) {
      it = entries_.erase(it);
      ++expired_;
      continue;
    }
    const HostId host = it->first;
    if (host != except && it->second.filter.maybe_contains(name) &&
        (!allow || allow(host))) {
      found.push_back(
          Candidate{it->second.last_seen, Source{host, it->second.endpoint}});
    }
    ++it;
  }
  std::stable_sort(found.begin(), found.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.last_seen > b.last_seen;
                   });
  std::vector<Source> out;
  for (const auto& c : found) {
    if (static_cast<int>(out.size()) >= max) break;
    out.push_back(c.source);
  }
  return out;
}

}  // namespace vcmr::store
