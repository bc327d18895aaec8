// Tests for the HTTP request/response layer over the flow network.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "copy_counter.h"
#include "net/http.h"
#include "sim/simulation.h"

namespace vcmr::net {
namespace {

struct Fixture {
  sim::Simulation sim{2};
  Network net{sim};
  HttpService http{net};
  NodeId server, client;

  Fixture() {
    NodeConfig c;
    c.latency = SimTime::millis(5);
    server = net.add_node(c);
    client = net.add_node(c);
  }
};

TEST(Http, RoundTripWithBody) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  int served = 0;
  f.http.listen(ep, [&](const HttpRequest& req, HttpRespondFn respond) {
    ++served;
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/hello");
    // The payload arrives as the typed value the client sent.
    EXPECT_EQ(std::any_cast<std::vector<int>>(req.body),
              (std::vector<int>{1, 2, 3}));
    HttpResponse resp;
    resp.body = std::string("world");
    resp.body_size = 5;
    respond(std::move(resp));
  });
  std::string got;
  HttpRequest req;
  req.path = "/hello";
  req.body = std::vector<int>{1, 2, 3};
  f.http.request(f.client, ep, std::move(req), [&](const HttpResponse& resp) {
    got = std::any_cast<std::string>(resp.body);
  });
  f.sim.run();
  EXPECT_EQ(got, "world");
  EXPECT_EQ(served, 1);
}

TEST(Http, NotListeningGives404) {
  Fixture f;
  int status = 0;
  f.http.request(f.client, Endpoint{f.server, 81}, HttpRequest{},
                 [&](const HttpResponse& resp) { status = resp.status; });
  f.sim.run();
  EXPECT_EQ(status, 404);
}

TEST(Http, StopListeningGives404) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  f.http.listen(ep, [](const HttpRequest&, HttpRespondFn respond) {
    respond(HttpResponse{});
  });
  f.http.stop_listening(ep);
  int status = 0;
  f.http.request(f.client, ep, HttpRequest{},
                 [&](const HttpResponse& resp) { status = resp.status; });
  f.sim.run();
  EXPECT_EQ(status, 404);
}

TEST(Http, LargeBodyTakesBandwidthTime) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  f.http.listen(ep, [](const HttpRequest&, HttpRespondFn respond) {
    HttpResponse resp;
    resp.body_size = 12'500'000;  // 1 s at 100 Mbit
    respond(std::move(resp));
  });
  bool done = false;
  f.http.request(f.client, ep, HttpRequest{},
                 [&](const HttpResponse&) { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(f.sim.now().as_seconds(), 0.99);
  EXPECT_LT(f.sim.now().as_seconds(), 1.1);
}

TEST(Http, UploadBodyFlowsBeforeHandler) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  double handler_at = -1;
  f.http.listen(ep, [&](const HttpRequest& req, HttpRespondFn respond) {
    EXPECT_EQ(req.body_size, 12'500'000);
    handler_at = f.sim.now().as_seconds();
    respond(HttpResponse{});
  });
  HttpRequest req;
  req.method = "POST";
  req.body_size = 12'500'000;
  bool done = false;
  f.http.request(f.client, ep, std::move(req),
                 [&](const HttpResponse&) { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(handler_at, 0.99);  // handler ran only after the body arrived
}

TEST(Http, AsyncHandlerDelaysResponse) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  f.http.listen(ep, [&](const HttpRequest&, HttpRespondFn respond) {
    f.sim.after(SimTime::seconds(2), [respond = std::move(respond)] {
      respond(HttpResponse{});
    });
  });
  bool done = false;
  f.http.request(f.client, ep, HttpRequest{},
                 [&](const HttpResponse&) { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(f.sim.now().as_seconds(), 2.0);
}

TEST(Http, OfflineServerFails) {
  Fixture f;
  f.net.set_online(f.server, false);
  bool failed = false;
  f.http.request(
      f.client, Endpoint{f.server, 80}, HttpRequest{},
      [](const HttpResponse&) { FAIL() << "reply from offline server"; },
      [&](NetError) { failed = true; });
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(Http, CallbacksAreNeverCopied) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  f.http.listen(ep, [](const HttpRequest&, HttpRespondFn respond) {
    HttpResponse resp;
    resp.body_size = 1000;
    respond(std::move(resp));
  });
  CopyCount done, failed;
  f.http.request(f.client, ep, HttpRequest{}, CountingFn(done),
                 CountingFn(failed));
  f.sim.run();
  EXPECT_EQ(done.calls, 1);
  EXPECT_EQ(failed.calls, 0);

  f.net.set_online(f.server, false);
  CopyCount offline_done, offline_failed;
  f.http.request(f.client, ep, HttpRequest{}, CountingFn(offline_done),
                 CountingFn(offline_failed));
  f.sim.run();
  EXPECT_EQ(offline_done.calls, 0);
  EXPECT_EQ(offline_failed.calls, 1);

  for (const CopyCount* c : {&done, &failed, &offline_done, &offline_failed}) {
    EXPECT_EQ(c->copies, 0);
  }
}

TEST(Http, RespondingTwiceThrows) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  f.http.listen(ep, [](const HttpRequest&, HttpRespondFn respond) {
    respond(HttpResponse{});
    respond(HttpResponse{});
  });
  int done = 0;
  f.http.request(f.client, ep, HttpRequest{},
                 [&](const HttpResponse&) { ++done; });
  EXPECT_THROW(f.sim.run(), Error);
  EXPECT_EQ(done, 0);
}

TEST(Http, ConcurrentRequestsAllServed) {
  Fixture f;
  const Endpoint ep{f.server, 80};
  int served = 0;
  f.http.listen(ep, [&](const HttpRequest&, HttpRespondFn respond) {
    ++served;
    HttpResponse resp;
    resp.body_size = 1'250'000;
    respond(std::move(resp));
  });
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    f.http.request(f.client, ep, HttpRequest{},
                   [&](const HttpResponse&) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(served, 10);
}

}  // namespace
}  // namespace vcmr::net
