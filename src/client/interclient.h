#pragma once
// Inter-client data transfer (§III.C) — the BOINC-MR client's new machinery.
//
// Serving side (MapOutputServer): "We open a TCP [socket] for listening to
// incoming connections whenever a map task has finished and its output(s)
// is available. We dynamically adapt to the number of files being served,
// and stop accepting connections when there are no more files available."
// Files expire after a serve timeout (reset on activity) or when the job
// finishes; a bounded number of concurrent connections protects the
// volunteer's uplink ("We kept a threshold for a maximum number of
// inter-client connections").
//
// Fetching side (PeerFetcher): establishes a connection to the mapper
// (optionally through the NAT-traversal tier ladder), transfers the file,
// and after n failed attempts reports failure so the client can fall back
// to the project server ("After n failed attempts, the user resorts to
// downloading the file from the server").

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mr/dataset.h"
#include "net/endpoint.h"
#include "net/network.h"
#include "net/traversal.h"
#include "sim/simulation.h"

namespace vcmr::client {

class MapOutputServer;

/// Endpoint → serving client lookup; one per simulated cluster. Stands in
/// for actually dialling the IP:port the scheduler handed out.
class PeerRegistry {
 public:
  void add(net::Endpoint ep, MapOutputServer* server);
  void remove(net::Endpoint ep);
  /// nullptr when nobody listens there (client offline or withdrawn).
  MapOutputServer* find(net::Endpoint ep) const;

 private:
  std::map<net::Endpoint, MapOutputServer*> servers_;
};

struct MapOutputServerConfig {
  int max_connections = 4;
  SimTime serve_timeout = SimTime::minutes(60);
  /// Serve with background priority (TCP-Nice, §III.D): inter-client
  /// uploads yield to the volunteer's foreground traffic.
  bool background_priority = false;
};

class MapOutputServer {
 public:
  MapOutputServer(sim::Simulation& sim, net::Network& net, NodeId node,
                  net::Endpoint endpoint, PeerRegistry& registry,
                  MapOutputServerConfig cfg = {});
  ~MapOutputServer();

  MapOutputServer(const MapOutputServer&) = delete;
  MapOutputServer& operator=(const MapOutputServer&) = delete;

  net::Endpoint endpoint() const { return ep_; }

  /// Makes a file available and (re)arms its timeout; registers the
  /// listener when this is the first file.
  void offer(const std::string& name, mr::FilePayload payload);
  /// Re-arms every timeout (the paper resets timeouts when the server
  /// reschedules a reduce task). `horizon` extends beyond the configured
  /// serve timeout when the next chance to re-arm is far away (a client in
  /// deep backoff re-arms to cover the whole silent window).
  void reset_timeouts(SimTime horizon = SimTime::zero());
  /// Stops serving one/all files (job finished).
  void withdraw(const std::string& name);
  void withdraw_all();

  bool serving() const { return !files_.empty(); }
  bool has(const std::string& name) const { return files_.count(name) > 0; }
  /// Names currently offered, lexicographic order.
  std::vector<std::string> served_names() const;
  int active_connections() const { return active_; }

  /// Peer-side entry point: transfer `name` to `requester`. Returns false
  /// (synchronously) when the file is gone or the connection limit is hit;
  /// otherwise callbacks fire when the flow ends.
  bool start_serving(NodeId requester, const std::string& name,
                     std::optional<NodeId> relay,
                     std::function<void(const mr::FilePayload&)> on_done,
                     std::function<void(net::NetError)> on_fail);

 private:
  struct Entry {
    mr::FilePayload payload;
    sim::EventHandle timeout;  ///< pending while the entry exists
  };
  /// (Re)arms the file's timeout at now + max(serve_timeout, horizon). A
  /// pending timeout moves in place (Simulation::reschedule).
  void arm_timeout(const std::string& name, Entry& e, SimTime horizon);

  sim::Simulation& sim_;
  net::Network& net_;
  NodeId node_;
  net::Endpoint ep_;
  PeerRegistry& registry_;
  MapOutputServerConfig cfg_;
  std::map<std::string, Entry> files_;
  int active_ = 0;
  bool registered_ = false;
};

struct PeerFetchConfig {
  int max_attempts = 3;                       ///< then fall back to server
  SimTime retry_delay = SimTime::seconds(5);
};

class PeerFetcher {
 public:
  /// `establisher` may be null: connections then succeed directly whenever
  /// the peer is online (the paper's "users open ports" deployment).
  PeerFetcher(sim::Simulation& sim, net::Network& net, NodeId my_node,
              PeerRegistry& registry, net::ConnectionEstablisher* establisher,
              PeerFetchConfig cfg = {});

  /// Fetches `name` from the peer at `ep`; retries up to max_attempts,
  /// then calls on_fail.
  void fetch(net::Endpoint ep, const std::string& name,
             std::function<void(const mr::FilePayload&)> on_done,
             std::function<void(std::string)> on_fail);

  /// Volunteer-store variant: one probe, no retries. A peer that matched a
  /// Bloom advert but cannot serve the chunk (false positive, withdrawn
  /// file, busy, offline) is a *miss*, reported via on_miss after at most a
  /// handshake RTT so the caller can redirect to its next source cheaply.
  void fetch_store(net::Endpoint ep, const std::string& name,
                   std::function<void(const mr::FilePayload&)> on_done,
                   std::function<void(std::string)> on_miss);

 private:
  /// One fetch, retries included: its caller's callbacks are held here
  /// once, and every stage's closure names the record by id.
  struct Fetch {
    net::Endpoint ep;
    std::string name;
    int tries_left = 0;  ///< attempts left, the current one included
    bool store = false;  ///< a store probe: one try, any failure a miss
    std::function<void(const mr::FilePayload&)> on_done;
    std::function<void(std::string)> on_fail;  ///< on_miss for a probe
  };
  using Fetches = std::unordered_map<std::uint64_t, Fetch>;

  std::uint64_t add(Fetch f);
  void attempt(std::uint64_t id);
  /// The one connect path: reach the peer (one handshake RTT, or the
  /// traversal ladder), then transfer(). Any failure on the way calls
  /// failed(); callers handle an offline peer themselves.
  void connect(std::uint64_t id);
  void transfer(std::uint64_t id, std::optional<NodeId> relay);
  void fetched(std::uint64_t id, const mr::FilePayload& p);
  /// A store probe ends as a miss; a fetch retries after retry_delay.
  void failed(std::uint64_t id, const std::string& why);
  Fetch& record(std::uint64_t id);
  Fetches::node_type take(std::uint64_t id);

  sim::Simulation& sim_;
  net::Network& net_;
  NodeId node_;
  PeerRegistry& registry_;
  net::ConnectionEstablisher* establisher_;
  PeerFetchConfig cfg_;
  Fetches fetches_;
  std::uint64_t next_fetch_ = 0;
};

}  // namespace vcmr::client
