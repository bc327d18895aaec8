#include "net/http.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace vcmr::net {

void HttpService::listen(Endpoint ep, HttpHandler handler) {
  require(static_cast<bool>(handler), "HttpService::listen: null handler");
  handlers_[ep] = std::move(handler);
}

void HttpService::stop_listening(Endpoint ep) { handlers_.erase(ep); }

void HttpService::request(NodeId client, Endpoint server, HttpRequest req,
                          std::function<void(HttpResponse)> on_done,
                          std::function<void(NetError)> on_fail) {
  req.from = client;
  obs::MetricsRegistry::instance().counter("http", "requests").add();
  obs::MetricsRegistry::instance()
      .counter("http", "request_bytes")
      .add(kHeaderBytes + req.body_size);

  auto fail = [this, on_fail](NetError err) {
    net_.sim().after(SimTime::zero(), [on_fail, err] {
      if (on_fail) on_fail(err);
    });
  };

  if (!net_.online(client) || !net_.online(server.node)) {
    fail(NetError::kNodeOffline);
    return;
  }
  if (!net_.reachable(client, server.node)) {
    fail(NetError::kPartitioned);
    return;
  }

  // Stage 1: connection + request headers (latency-bound).
  net_.send_message(
      client, server.node, kHeaderBytes,
      [this, client, server, req = std::move(req), on_done = std::move(on_done),
       on_fail]() mutable {
        // Stage 2: request body as a flow when present.
        auto dispatch = [this, client, server, on_done = std::move(on_done),
                         on_fail](HttpRequest r) {
          const auto it = handlers_.find(server);
          if (it == handlers_.end()) {
            deliver_response(client, server, HttpResponse::not_found(),
                             on_done, on_fail);
            return;
          }
          // Stage 3: the handler responds when its processing is done.
          it->second(std::move(r), [this, client, server, on_done,
                                    on_fail](HttpResponse resp) {
            deliver_response(client, server, std::move(resp), on_done,
                             on_fail);
          });
        };

        if (req.body_size > 0) {
          FlowSpec fs;
          fs.src = client;
          fs.dst = server.node;
          fs.bytes = req.body_size;
          fs.on_fail = [this, on_fail](NetError err) {
            if (on_fail) on_fail(err);
          };
          fs.on_complete = [dispatch = std::move(dispatch),
                            req = std::move(req)]() mutable {
            dispatch(std::move(req));
          };
          net_.start_flow(std::move(fs));
        } else {
          dispatch(std::move(req));
        }
      },
      [on_fail](NetError err) {
        if (on_fail) on_fail(err);
      });
}

void HttpService::deliver_response(
    NodeId client, Endpoint server, HttpResponse resp,
    std::function<void(HttpResponse)> on_done,
    std::function<void(NetError)> on_fail) {
  obs::MetricsRegistry::instance()
      .counter("http", "response_bytes")
      .add(resp.body_size > 0 ? resp.body_size : kHeaderBytes);
  if (resp.body_size > 0) {
    FlowSpec fs;
    fs.src = server.node;
    fs.dst = client;
    fs.bytes = resp.body_size;
    fs.on_fail = [on_fail](NetError err) {
      if (on_fail) on_fail(err);
    };
    fs.on_complete = [resp = std::move(resp),
                      on_done = std::move(on_done)]() mutable {
      if (on_done) on_done(std::move(resp));
    };
    net_.start_flow(std::move(fs));
  } else {
    // Response headers only: latency-bound.
    net_.send_message(
        server.node, client, kHeaderBytes,
        [resp = std::move(resp), on_done = std::move(on_done)]() mutable {
          if (on_done) on_done(std::move(resp));
        },
        [on_fail](NetError err) {
          if (on_fail) on_fail(err);
        });
  }
}

}  // namespace vcmr::net
