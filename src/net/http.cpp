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

  const ExchangeId x = next_exchange_++;
  exchanges_.emplace(x, Exchange{client, server, std::move(req), {}, false,
                                 std::move(on_done), std::move(on_fail)});

  const auto fail_later = [this, x](NetError err) {
    net_.sim().after(SimTime::zero(), [this, x, err] { fail(x, err); });
  };
  if (!net_.online(client) || !net_.online(server.node)) {
    fail_later(NetError::kNodeOffline);
    return;
  }
  if (!net_.reachable(client, server.node)) {
    fail_later(NetError::kPartitioned);
    return;
  }

  // Stage 1: connection + request headers (latency-bound).
  net_.send_message(
      client, server.node, kHeaderBytes, [this, x] { send_body(x); },
      [this, x](NetError err) { fail(x, err); });
}

void HttpService::send_body(ExchangeId x) {
  const Exchange& e = exchange(x);
  if (e.req.body_size <= 0) {
    dispatch(x);
    return;
  }
  FlowSpec fs;
  fs.src = e.client;
  fs.dst = e.server.node;
  fs.bytes = e.req.body_size;
  fs.on_fail = [this, x](NetError err) { fail(x, err); };
  fs.on_complete = [this, x] { dispatch(x); };
  net_.start_flow(std::move(fs));
}

void HttpService::dispatch(ExchangeId x) {
  Exchange& e = exchange(x);
  const auto it = handlers_.find(e.server);
  if (it == handlers_.end()) {
    deliver_response(x, HttpResponse::not_found());
    return;
  }
  it->second(std::move(e.req), [this, x](HttpResponse resp) {
    deliver_response(x, std::move(resp));
  });
}

void HttpService::deliver_response(ExchangeId x, HttpResponse resp) {
  Exchange& e = exchange(x);
  require(!e.answered, "HttpService: a handler responded twice");
  e.answered = true;
  obs::MetricsRegistry::instance()
      .counter("http", "response_bytes")
      .add(resp.body_size > 0 ? resp.body_size : kHeaderBytes);
  const Bytes body_size = resp.body_size;
  e.resp = std::move(resp);
  if (body_size > 0) {
    FlowSpec fs;
    fs.src = e.server.node;
    fs.dst = e.client;
    fs.bytes = body_size;
    fs.on_fail = [this, x](NetError err) { fail(x, err); };
    fs.on_complete = [this, x] { finish(x); };
    net_.start_flow(std::move(fs));
  } else {
    // Response headers only: latency-bound.
    net_.send_message(
        e.server.node, e.client, kHeaderBytes, [this, x] { finish(x); },
        [this, x](NetError err) { fail(x, err); });
  }
}

HttpService::Exchange& HttpService::exchange(ExchangeId x) {
  const auto it = exchanges_.find(x);
  require(it != exchanges_.end(), "HttpService: the exchange already ended");
  return it->second;
}

HttpService::Exchanges::node_type HttpService::take(ExchangeId x) {
  auto node = exchanges_.extract(x);
  require(!node.empty(), "HttpService: the exchange already ended");
  return node;
}

void HttpService::finish(ExchangeId x) {
  // Detached first: on_done may start new exchanges.
  auto node = take(x);
  Exchange& e = node.mapped();
  if (e.on_done) e.on_done(std::move(e.resp));
}

void HttpService::fail(ExchangeId x, NetError err) {
  auto node = take(x);
  Exchange& e = node.mapped();
  if (e.on_fail) e.on_fail(err);
}

}  // namespace vcmr::net
