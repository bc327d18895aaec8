// Tests for the client-side building blocks: exponential backoff,
// MapOutputServer serving rules, and PeerFetcher retry/fallback behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "client/backoff.h"
#include "client/interclient.h"
#include "common/error.h"
#include "copy_counter.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace vcmr::client {
namespace {

TEST(Backoff, EscalatesAndCaps) {
  sim::Simulation sim(1);
  ExponentialBackoff b(SimTime::seconds(60), SimTime::seconds(600),
                       sim.rng_stream("b"), /*jitter=*/0.0);
  EXPECT_NEAR(b.next().as_seconds(), 60, 1e-9);
  EXPECT_NEAR(b.next().as_seconds(), 120, 1e-9);
  EXPECT_NEAR(b.next().as_seconds(), 240, 1e-9);
  EXPECT_NEAR(b.next().as_seconds(), 480, 1e-9);
  EXPECT_NEAR(b.next().as_seconds(), 600, 1e-9);  // paper's observed cap
  EXPECT_NEAR(b.next().as_seconds(), 600, 1e-9);
  // The failure counter stops escalating once doubling can no longer raise
  // the delay, so it stays bounded over arbitrarily long failure streaks.
  EXPECT_EQ(b.failures(), 4);
  for (int i = 0; i < 1000; ++i) b.next();
  EXPECT_EQ(b.failures(), 4);
  EXPECT_NEAR(b.next().as_seconds(), 600, 1e-9);
}

TEST(Backoff, ResetRestartsLadder) {
  sim::Simulation sim(1);
  ExponentialBackoff b(SimTime::seconds(60), SimTime::seconds(600),
                       sim.rng_stream("b"), 0.0);
  b.next();
  b.next();
  b.reset();
  EXPECT_EQ(b.failures(), 0);
  EXPECT_NEAR(b.next().as_seconds(), 60, 1e-9);
}

TEST(Backoff, JitterStaysInBand) {
  sim::Simulation sim(2);
  ExponentialBackoff b(SimTime::seconds(100), SimTime::seconds(1000),
                       sim.rng_stream("b"), 0.3);
  for (int i = 0; i < 50; ++i) {
    const double d = b.next().as_seconds();
    EXPECT_GE(d, 70.0 - 1e-9);
    EXPECT_LE(d, 1000.0 + 1e-9);
  }
}

// A backoff must wait: a zero or negative floor, a cap below the floor or
// a jitter outside [0, 1) re-polled the scheduler without pause.
TEST(Backoff, RejectsBoundsThatDoNotWait) {
  sim::Simulation sim(1);
  const auto make = [&sim](double min_s, double max_s, double jitter) {
    const ExponentialBackoff b(SimTime::seconds(min_s),
                               SimTime::seconds(max_s), sim.rng_stream("b"),
                               jitter);
    (void)b;
  };
  EXPECT_THROW(make(0, 600, 0.3), Error);
  EXPECT_THROW(make(-50, -10, 0.3), Error);
  EXPECT_THROW(make(100, 50, 0.3), Error);
  EXPECT_THROW(make(60, 600, 1.0), Error);
  EXPECT_THROW(make(60, 600, -0.1), Error);
  EXPECT_NO_THROW(make(60, 60, 0.0));
}

struct IcFixture {
  obs::ScopedMetricsRegistry metrics;  ///< first: outlives everything below
  sim::Simulation sim{3};
  net::Network net{sim};
  PeerRegistry registry;
  NodeId mapper, reducer;

  IcFixture() {
    net::NodeConfig c;
    c.latency = SimTime::millis(5);
    mapper = net.add_node(c);
    reducer = net.add_node(c);
  }

  MapOutputServerConfig serve_cfg(int max_conn = 4,
                                  double timeout_s = 3600) {
    MapOutputServerConfig c;
    c.max_connections = max_conn;
    c.serve_timeout = SimTime::seconds(timeout_s);
    return c;
  }

  /// One interclient/* registry counter.
  std::int64_t ic(const char* name) const {
    return metrics.registry().counter_value("interclient", name);
  }
};

TEST(MapOutputServer, ServesOfferedFile) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg());
  srv.offer("m0.part0", mr::FilePayload::of_content("w 1\n"));
  EXPECT_TRUE(srv.serving());
  EXPECT_EQ(f.registry.find({f.mapper, 31416}), &srv);

  std::string got;
  const bool accepted = srv.start_serving(
      f.reducer, "m0.part0", std::nullopt,
      [&](const mr::FilePayload& p) { got = *p.content; }, nullptr);
  EXPECT_TRUE(accepted);
  f.sim.run();
  EXPECT_EQ(got, "w 1\n");
  EXPECT_EQ(f.ic("files_served"), 1);
  EXPECT_EQ(f.ic("bytes_served"), 4);
}

TEST(MapOutputServer, RejectsMissingFile) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg());
  srv.offer("exists", mr::FilePayload::of_content("x"));
  EXPECT_FALSE(srv.start_serving(f.reducer, "missing", std::nullopt,
                                 nullptr, nullptr));
  EXPECT_EQ(f.ic("serve_rejected_missing"), 1);
}

TEST(MapOutputServer, ConnectionLimitEnforced) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg(/*max_conn=*/2));
  srv.offer("f", mr::FilePayload::of_content(std::string(1'000'000, 'x')));
  int ok = 0;
  for (int i = 0; i < 3; ++i) {
    const bool accepted = srv.start_serving(
        f.reducer, "f", std::nullopt, [&](const mr::FilePayload&) { ++ok; },
        nullptr);
    EXPECT_EQ(accepted, i < 2);
  }
  EXPECT_EQ(f.ic("serve_rejected_busy"), 1);
  f.sim.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(srv.active_connections(), 0);
}

TEST(MapOutputServer, TimeoutWithdrawsAndUnregisters) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg(4, /*timeout_s=*/100));
  srv.offer("f", mr::FilePayload::of_content("x"));
  f.sim.run(SimTime::seconds(99));
  EXPECT_TRUE(srv.serving());
  f.sim.run(SimTime::seconds(101));
  EXPECT_FALSE(srv.serving());
  // "stop accepting connections when there are no more files available":
  EXPECT_EQ(f.registry.find({f.mapper, 31416}), nullptr);
}

TEST(MapOutputServer, ActivityResetsTimeout) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg(4, 100));
  srv.offer("f", mr::FilePayload::of_content("x"));
  f.sim.run(SimTime::seconds(80));
  srv.start_serving(f.reducer, "f", std::nullopt, nullptr, nullptr);
  f.sim.run(SimTime::seconds(150));  // past the original deadline
  EXPECT_TRUE(srv.serving());        // reset by the serve at t=80
  f.sim.run(SimTime::seconds(190));
  EXPECT_FALSE(srv.serving());
}

TEST(MapOutputServer, ExplicitResetTimeouts) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg(4, 100));
  srv.offer("f", mr::FilePayload::of_content("x"));
  f.sim.run(SimTime::seconds(90));
  srv.reset_timeouts();  // §III.C: reset when the server reschedules a reduce
  f.sim.run(SimTime::seconds(150));
  EXPECT_TRUE(srv.serving());
}

// reset_timeouts(h) moves every pending timeout to now + max(serve_timeout,
// h): all files then expire together, in name order.
TEST(MapOutputServer, ResetTimeoutsExpireTogetherInNameOrder) {
  for (const double horizon_s : {0.0, 50.0, 250.0}) {
    IcFixture f;
    MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416},
                        f.registry, f.serve_cfg(4, 100));
    srv.offer("c", mr::FilePayload::of_content("3"));
    f.sim.run(SimTime::seconds(10));
    srv.offer("a", mr::FilePayload::of_content("1"));
    f.sim.run(SimTime::seconds(20));
    srv.offer("b", mr::FilePayload::of_content("2"));
    f.sim.run(SimTime::seconds(30));
    srv.reset_timeouts(SimTime::seconds(horizon_s));

    std::vector<std::pair<std::string, SimTime>> expired;
    std::vector<std::string> left = srv.served_names();
    f.sim.run_until([&] {
      const std::vector<std::string> now = srv.served_names();
      for (const std::string& name : left) {
        if (std::find(now.begin(), now.end(), name) == now.end()) {
          expired.emplace_back(name, f.sim.now());
        }
      }
      left = now;
      return !srv.serving();
    });
    const SimTime at =
        SimTime::seconds(30) + std::max(SimTime::seconds(100),
                                        SimTime::seconds(horizon_s));
    EXPECT_EQ(expired, (std::vector<std::pair<std::string, SimTime>>{
                           {"a", at}, {"b", at}, {"c", at}}))
        << "horizon " << horizon_s;
  }
}

TEST(MapOutputServer, WithdrawAllStopsServing) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg());
  srv.offer("a", mr::FilePayload::of_content("1"));
  srv.offer("b", mr::FilePayload::of_content("2"));
  srv.withdraw_all();
  EXPECT_FALSE(srv.serving());
  EXPECT_EQ(f.registry.find({f.mapper, 31416}), nullptr);
}

TEST(PeerFetcher, FetchesFromServingPeer) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg());
  srv.offer("f", mr::FilePayload::of_content("data"));
  PeerFetcher fetcher(f.sim, f.net, f.reducer, f.registry, nullptr);
  std::string got;
  fetcher.fetch({f.mapper, 31416}, "f",
                [&](const mr::FilePayload& p) { got = *p.content; },
                [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_EQ(got, "data");
  EXPECT_EQ(f.ic("fetch_ok"), 1);
}

TEST(PeerFetcher, ExhaustsAttemptsThenFails) {
  IcFixture f;
  PeerFetchConfig cfg;
  cfg.max_attempts = 3;
  cfg.retry_delay = SimTime::seconds(1);
  PeerFetcher fetcher(f.sim, f.net, f.reducer, f.registry, nullptr, cfg);
  std::string why;
  fetcher.fetch({f.mapper, 31416}, "gone", nullptr,
                [&](const std::string& w) { why = w; });
  f.sim.run();
  EXPECT_FALSE(why.empty());
  EXPECT_EQ(f.ic("fetch_attempts"), 3);
  EXPECT_EQ(f.ic("fetch_failures"), 1);
  // The three attempts cost at least two retry delays.
  EXPECT_GE(f.sim.now().as_seconds(), 2.0);
}

TEST(PeerFetcher, OfflinePeerRetriesAndFails) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg());
  srv.offer("f", mr::FilePayload::of_content("x"));
  f.net.set_online(f.mapper, false);
  PeerFetchConfig cfg;
  cfg.max_attempts = 2;
  cfg.retry_delay = SimTime::seconds(1);
  PeerFetcher fetcher(f.sim, f.net, f.reducer, f.registry, nullptr, cfg);
  bool failed = false;
  fetcher.fetch({f.mapper, 31416}, "f", nullptr,
                [&](const std::string&) { failed = true; });
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(PeerFetcher, RecoversOnRetryAfterBusy) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg(/*max_conn=*/1));
  srv.offer("big", mr::FilePayload::of_content(std::string(500'000, 'x')));
  // Occupy the single slot with one transfer...
  srv.start_serving(f.reducer, "big", std::nullopt, nullptr, nullptr);
  // ...so the fetcher's first attempt is refused and its retry succeeds.
  PeerFetchConfig cfg;
  cfg.max_attempts = 3;
  cfg.retry_delay = SimTime::seconds(2);
  PeerFetcher fetcher(f.sim, f.net, f.reducer, f.registry, nullptr, cfg);
  bool ok = false;
  fetcher.fetch({f.mapper, 31416}, "big",
                [&](const mr::FilePayload&) { ok = true; },
                [](const std::string& w) { FAIL() << w; });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(f.ic("fetch_attempts"), 2);
}

TEST(PeerFetcher, NeverCopiesCallbacks) {
  IcFixture f;
  MapOutputServer srv(f.sim, f.net, f.mapper, {f.mapper, 31416}, f.registry,
                      f.serve_cfg());
  srv.offer("f", mr::FilePayload::of_content("data"));
  PeerFetchConfig cfg;
  cfg.max_attempts = 3;
  cfg.retry_delay = SimTime::seconds(1);
  PeerFetcher fetcher(f.sim, f.net, f.reducer, f.registry, nullptr, cfg);
  CopyCount ok_done, ok_failed, gone_done, gone_failed;
  fetcher.fetch({f.mapper, 31416}, "f", CountingFn(ok_done),
                CountingFn(ok_failed));
  fetcher.fetch({f.mapper, 31416}, "gone", CountingFn(gone_done),
                CountingFn(gone_failed));
  f.sim.run();
  EXPECT_EQ(ok_done.calls, 1);
  EXPECT_EQ(gone_failed.calls, 1);
  EXPECT_EQ(f.ic("fetch_attempts"), 4);  // one, then three for "gone"
  for (const CopyCount* c : {&ok_done, &ok_failed, &gone_done, &gone_failed}) {
    EXPECT_EQ(c->copies, 0);
  }
  EXPECT_EQ(ok_failed.calls + gone_done.calls, 0);
}

}  // namespace
}  // namespace vcmr::client
