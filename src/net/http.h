#pragma once
// HTTP-style request/response on top of the flow network.
//
// BOINC moves everything over HTTP: scheduler RPCs are XML POSTs, input
// files are GETs from the project's data servers, and outputs are POSTed
// back (the paper notes transfers are handled by libcurl with multiple
// simultaneous connections). HttpService models that: a request costs one
// connection RTT plus a body flow each way, with handler-controlled
// processing delay at the server in between. Large bodies contend for
// bandwidth like any other flow; headers ride the latency-only message path.
//
// A body is modelled, not serialized: `body_size` is what the network
// charges, and `body` carries the payload to the other side untouched as a
// typed value (a scheduler RPC's proto struct, sized by proto::wire_size).
//
// One record per exchange holds the caller's callbacks, the request until
// the handler takes it, and the response until its body lands. The service
// owns the records and names each by id; every stage's closure captures
// only (service, id), so no stage copies a caller's callable, and each
// closure fits std::function's local buffer. The record goes when on_done
// or on_fail runs.

#include <any>
#include <functional>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "net/endpoint.h"
#include "net/network.h"

namespace vcmr::net {

struct HttpRequest {
  std::string method = "GET";
  std::string path;
  Bytes body_size = 0;   ///< modelled payload size (contends for bandwidth)
  std::any body;         ///< optional typed payload, handed over as is
  NodeId from;           ///< filled in by HttpService
};

struct HttpResponse {
  int status = 200;
  Bytes body_size = 0;
  std::any body;

  bool ok() const { return status >= 200 && status < 300; }
  static HttpResponse not_found() { return HttpResponse{404, 0, {}}; }
};

/// Handlers respond asynchronously: call `respond` exactly once, now or at
/// any later simulated time (lets a scheduler model per-RPC service time).
/// A second call throws vcmr::Error; a handler that never responds leaves
/// its exchange's record held until the service is destroyed. Handler and
/// response callback receive their message by value, so they may move its
/// payload out.
using HttpRespondFn = std::function<void(HttpResponse)>;
using HttpHandler = std::function<void(HttpRequest, HttpRespondFn)>;

class HttpService {
 public:
  explicit HttpService(Network& network) : net_(network) {}

  /// Registers a handler for (node, port). Longest-prefix routing on path
  /// is intentionally not provided: one endpoint, one handler, as in
  /// BOINC's cgi-per-function layout.
  void listen(Endpoint ep, HttpHandler handler);
  void stop_listening(Endpoint ep);

  /// Issues a request. `on_fail` fires on connectivity loss at any stage or
  /// when nothing listens at the endpoint. Body flows are foreground flows
  /// on the direct path.
  void request(NodeId client, Endpoint server, HttpRequest req,
               std::function<void(HttpResponse)> on_done,
               std::function<void(NetError)> on_fail = nullptr);

 private:
  static constexpr Bytes kHeaderBytes = 256;

  struct Exchange {
    NodeId client;
    Endpoint server;
    HttpRequest req;    ///< until the handler takes it
    HttpResponse resp;  ///< from the handler's answer until it lands
    bool answered = false;
    std::function<void(HttpResponse)> on_done;
    std::function<void(NetError)> on_fail;
  };
  using ExchangeId = std::uint64_t;
  using Exchanges = std::unordered_map<ExchangeId, Exchange>;

  /// Stage 2: the request body as a flow when present, then dispatch().
  void send_body(ExchangeId x);
  /// Stage 3: hands the request to the endpoint's handler (404 when none).
  void dispatch(ExchangeId x);
  /// Stage 4: the handler's answer travels back, as a flow when it has a
  /// body, else as a header message. Throws when `x` already answered.
  void deliver_response(ExchangeId x, HttpResponse resp);
  /// Ends the exchange: detaches its record, runs on_done / on_fail, and
  /// frees the record when that returns.
  void finish(ExchangeId x);
  void fail(ExchangeId x, NetError err);
  /// The live record `x` names; throws vcmr::Error once it has ended.
  Exchange& exchange(ExchangeId x);
  /// Detaches the live record `x` names; throws like exchange().
  Exchanges::node_type take(ExchangeId x);

  Network& net_;
  std::map<Endpoint, HttpHandler> handlers_;
  Exchanges exchanges_;
  ExchangeId next_exchange_ = 0;
};

}  // namespace vcmr::net
