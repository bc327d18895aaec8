#pragma once
// vcmr::store — the distributed storage tier.
//
// Two pieces:
//
//  * StorageTier — the project's data servers. BOINC projects stage input
//    files on HTTP file servers and receive output uploads there (§III.B:
//    "All map input data are saved on the project's data servers"). Each
//    shard is one such server on its own node: every download and upload is
//    an HTTP request to the shard that holds the file, so it contends for
//    that shard's access link — the bottleneck the paper's inter-client
//    transfers exist to relieve, and the one extra shards widen. A file's
//    shard is its name hash modulo the shard count. Per-shard and per-tier
//    egress/ingress land in vcmr::obs (always-on counter bumps: no events,
//    no RNG draws).
//
//  * ReplicaDirectory — the scheduler-side index of the volunteer replica
//    store. Clients that downloaded or produced a chunk advertise a Bloom
//    filter of the names they serve ("who has chunk X" membership, the
//    existing common::BloomFilter wire format) in each scheduler RPC; the
//    directory answers lookup() with trusted serve points so task
//    assignments can point downloads at volunteers instead of the project
//    shards. Bloom false positives are resolved by the client's cheap
//    miss/redirect path — a peer that matches the filter but lacks the
//    chunk refuses synchronously and the client moves to the next source.
//    Entries expire on a TTL (churned volunteers fade out) and an empty
//    advert removes the entry (a crashed client's next RPC carries an empty
//    filter, invalidating its serve points like PR 3's dead holders).
//
// Both are default-off: a scenario with no <data_servers>/<volunteer_store>
// block stays bit-identical to the seed golden traces.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bloom.h"
#include "common/types.h"
#include "mr/dataset.h"
#include "net/http.h"

namespace vcmr::store {

struct StorageTierConfig {
  /// Number of project data servers the staged files are sharded over.
  /// 1 reproduces the single-server deployment exactly.
  int n_shards = 1;

  friend bool operator==(const StorageTierConfig&,
                         const StorageTierConfig&) = default;
};

struct VolunteerStoreConfig {
  bool enabled = false;
  /// Bloom geometry of the per-client "chunks I serve" advert.
  int filter_bits = 2048;
  int filter_hashes = 4;
  /// Volunteer serve points attached per input file in a task assignment.
  int max_store_peers = 2;
  /// A directory entry not refreshed by a scheduler RPC within this window
  /// is dropped (churned volunteers stop being handed out).
  SimTime advert_ttl = SimTime::minutes(15);
  /// Locality-aware chunk dispatch: once this many distinct hosts have
  /// been sent one input file server-sourced, further assignments of that
  /// file wait (bounded by dispatch_max_skips, delay-scheduling style)
  /// until a trusted volunteer replica exists to serve it. The default of
  /// 2 matches a quorum-2 project: the validation pair bootstraps
  /// unhindered, and everything past it is fed from the replica store.
  int dispatch_gate_width = 2;
  int dispatch_max_skips = 8;

  friend bool operator==(const VolunteerStoreConfig&,
                         const VolunteerStoreConfig&) = default;
};

/// N project data servers. Shard 0 lives on the project server node;
/// extra shards are added by the deployment (Cluster) on their own nodes,
/// each with its own access link, so tier egress scales with shard count.
class StorageTier {
 public:
  StorageTier(net::HttpService& http, NodeId primary_node, int port = 80);
  ~StorageTier();

  StorageTier(const StorageTier&) = delete;
  StorageTier& operator=(const StorageTier&) = delete;

  /// Adds a shard on `node` (same port). A file's shard depends on the
  /// shard count, so this throws once a file has been staged or uploaded.
  void add_shard(NodeId node);

  /// Shard that holds (or would receive) `name`: fnv1a64(name) modulo the
  /// shard count.
  int shard_for(const std::string& name) const;

  /// Registers a file for download, replacing any earlier version.
  void stage(const std::string& name, mr::FilePayload payload);
  bool has(const std::string& name) const { return payload(name) != nullptr; }
  /// nullptr when absent.
  const mr::FilePayload* payload(const std::string& name) const;

  // --- client-side helpers (model libcurl against the holding shard) --------
  // Each transfer holds its caller's callbacks once, in a record the tier
  // keeps until the shard's answer (or a network failure) ends it.
  /// GET: transfers the file's bytes to `client`; delivers the payload.
  void download(NodeId client, const std::string& name,
                std::function<void(const mr::FilePayload&)> on_done,
                std::function<void(std::string)> on_fail);
  /// POST: transfers the payload's bytes from `client` and stores it.
  void upload(NodeId client, const std::string& name, mr::FilePayload payload,
              std::function<void()> on_done,
              std::function<void(std::string)> on_fail);

  /// Fault injection: a shard that is down answers every request with 503
  /// (clients retry under their transfer policies); its files survive the
  /// outage, as a restarted file server's disk would. shard == -1 hits
  /// every shard.
  void set_available(int shard, bool up);

  /// Bytes the shards answered downloads with, counted when a shard's
  /// handler answers. store/egress_bytes counts a download when its body
  /// flow completes, so only a transfer cut short tells the two apart.
  Bytes bytes_served() const { return bytes_served_; }
  /// Requests a down shard refused.
  std::int64_t rejected_unavailable() const { return rejected_unavailable_; }

 private:
  struct Shard {
    net::Endpoint ep;
    std::map<std::string, mr::FilePayload> files;
    bool up = true;
  };

  /// One download or upload in flight.
  struct Transfer {
    bool upload = false;
    std::size_t shard = 0;
    std::string name;
    mr::FilePayload payload;  ///< an upload's file, stored on the answer
    std::function<void(const mr::FilePayload&)> on_downloaded;
    std::function<void()> on_uploaded;
    std::function<void(std::string)> on_fail;
  };
  using Transfers = std::unordered_map<std::uint64_t, Transfer>;

  /// Shard `s`'s HTTP handler: GET /download/<name>, POST /upload/<name>.
  void serve(std::size_t s, const net::HttpRequest& req,
             const net::HttpRespondFn& respond);
  /// Sends `req` to the transfer's shard; answered() or failed() ends it.
  void start(NodeId client, net::HttpRequest req, Transfer t);
  void answered(std::uint64_t id, const net::HttpResponse& resp);
  void failed(std::uint64_t id, net::NetError err);
  Transfers::node_type take(std::uint64_t id);

  net::HttpService& http_;
  int port_;
  std::vector<Shard> shards_;
  Transfers transfers_;
  std::uint64_t next_transfer_ = 0;
  bool placed_ = false;  ///< a file has been staged or uploaded
  Bytes bytes_served_ = 0;
  std::int64_t rejected_unavailable_ = 0;
};

/// Scheduler-side index of volunteer replica adverts.
class ReplicaDirectory {
 public:
  struct Source {
    HostId host;
    net::Endpoint endpoint;
  };

  /// Installs or refreshes a host's advert. An empty filter (the host
  /// serves nothing — e.g. its first RPC after a crash) removes the entry.
  void update(HostId host, common::BloomFilter filter, net::Endpoint endpoint,
              SimTime now);
  void remove(HostId host);
  void clear();
  std::size_t size() const { return entries_.size(); }
  bool knows(HostId host) const { return entries_.count(host) > 0; }

  /// Whether `host`'s own advert maybe-contains `name` — i.e. the host
  /// already holds the chunk locally. Used to exempt a requester from the
  /// dispatch gate: serving yourself needs neither trust nor a transfer.
  bool serves(HostId host, const std::string& name) const;

  /// Hosts whose advert maybe-contains `name`, most-recently-seen first
  /// (recency is the scheduler's cheapest liveness signal under churn; ties
  /// break by host id), at most `max`, skipping `except` (the requester) and
  /// hosts `allow` rejects (the reputation gate). Entries older than `ttl`
  /// are evicted as they are encountered.
  std::vector<Source> lookup(const std::string& name, SimTime now, SimTime ttl,
                             HostId except, int max,
                             const std::function<bool(HostId)>& allow);

  /// Entries lazily evicted on TTL expiry so far.
  std::int64_t expired() const { return expired_; }

 private:
  struct Entry {
    common::BloomFilter filter;
    net::Endpoint endpoint;
    SimTime last_seen;
  };
  std::map<HostId, Entry> entries_;
  std::int64_t expired_ = 0;
};

}  // namespace vcmr::store
