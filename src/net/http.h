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

#include <any>
#include <functional>
#include <map>
#include <memory>
#include <string>

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
/// Handler and response callback receive their message by value, so they
/// may move its payload out.
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

  Network& network() { return net_; }

 private:
  static constexpr Bytes kHeaderBytes = 256;

  void deliver_response(NodeId client, Endpoint server, HttpResponse resp,
                        std::function<void(HttpResponse)> on_done,
                        std::function<void(NetError)> on_fail);

  Network& net_;
  std::map<Endpoint, HttpHandler> handlers_;
};

}  // namespace vcmr::net
