// Tests for the project's data server, a single-shard storage tier:
// staging, HTTP downloads/uploads with real payload delivery, failure
// paths, and traffic accounting.

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/simulation.h"
#include "store/store.h"

namespace vcmr::server {
namespace {

struct Fixture {
  obs::ScopedMetricsRegistry metrics;  ///< first: outlives everything below
  sim::Simulation sim{21};
  net::Network net{sim};
  net::HttpService http{net};
  NodeId server_node;
  NodeId client_node;
  std::unique_ptr<store::StorageTier> tier;

  Fixture() {
    net::NodeConfig c;
    c.latency = SimTime::millis(2);
    server_node = net.add_node(c);
    client_node = net.add_node(c);
    tier = std::make_unique<store::StorageTier>(http, server_node);
  }

  /// Project-tier egress: bytes of downloads whose body flow completed.
  std::int64_t egress() const {
    return metrics.registry().counter_value("store", "egress_bytes",
                                            {{"shard", "0"}});
  }
};

TEST(SingleShardTier, StageAndQuery) {
  Fixture f;
  f.tier->stage("input0", mr::FilePayload::of_content("hello"));
  EXPECT_TRUE(f.tier->has("input0"));
  EXPECT_FALSE(f.tier->has("other"));
  ASSERT_NE(f.tier->payload("input0"), nullptr);
  EXPECT_EQ(*f.tier->payload("input0")->content, "hello");
  EXPECT_EQ(f.tier->payload("other"), nullptr);
}

TEST(SingleShardTier, DownloadDeliversPayloadAndTakesTime) {
  Fixture f;
  const std::string body(12'500'000, 'x');  // 1 s at 100 Mbit
  f.tier->stage("big", mr::FilePayload::of_content(body));
  std::string got;
  f.tier->download(f.client_node, "big",
                   [&](const mr::FilePayload& p) { got = *p.content; },
                   [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_EQ(got.size(), body.size());
  EXPECT_GT(f.sim.now().as_seconds(), 0.99);
  EXPECT_EQ(f.egress(), static_cast<Bytes>(body.size()));
  EXPECT_EQ(f.tier->bytes_served(), static_cast<Bytes>(body.size()));
}

TEST(SingleShardTier, DownloadMissingFileFails) {
  Fixture f;
  std::string why;
  f.tier->download(f.client_node, "ghost",
                   [](const mr::FilePayload&) { FAIL() << "delivered ghost"; },
                   [&](const std::string& w) { why = w; });
  f.sim.run();
  EXPECT_NE(why.find("404"), std::string::npos);
}

TEST(SingleShardTier, UploadStoresPayload) {
  Fixture f;
  bool done = false;
  f.tier->upload(f.client_node, "out0",
                 mr::FilePayload::of_content("result bytes"),
                 [&] { done = true; },
                 [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(f.tier->has("out0"));
  EXPECT_EQ(*f.tier->payload("out0")->content, "result bytes");
  const obs::MetricsRegistry& reg = f.metrics.registry();
  EXPECT_EQ(reg.counter_value("store", "ingress_bytes", {{"shard", "0"}}), 12);
  EXPECT_EQ(reg.counter_value("store", "tier_ingress_bytes",
                              {{"tier", "project"}}),
            12);
}

TEST(SingleShardTier, UploadFromOfflineClientFails) {
  Fixture f;
  f.net.set_online(f.client_node, false);
  bool failed = false;
  f.tier->upload(f.client_node, "out0", mr::FilePayload::of_content("x"),
                 [] { FAIL() << "uploaded while offline"; },
                 [&](const std::string&) { failed = true; });
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(SingleShardTier, DownloadInterruptedByServerOutage) {
  Fixture f;
  const Bytes size = 12'500'000;
  f.tier->stage("big", mr::FilePayload::of_content(std::string(size, 'y')));
  bool failed = false;
  f.tier->download(f.client_node, "big",
                   [](const mr::FilePayload&) { FAIL() << "completed"; },
                   [&](const std::string&) { failed = true; });
  f.sim.after(SimTime::seconds(0.3),
              [&] { f.net.set_online(f.server_node, false); });
  f.sim.run();
  EXPECT_TRUE(failed);
  // The handler answered, so the file counts as served; its body flow died,
  // so it never counts as egress.
  EXPECT_EQ(f.tier->bytes_served(), size);
  EXPECT_EQ(f.egress(), 0);
}

TEST(SingleShardTier, RestagingOverwrites) {
  Fixture f;
  f.tier->stage("f", mr::FilePayload::of_content("v1"));
  f.tier->stage("f", mr::FilePayload::of_content("version2"));
  EXPECT_EQ(*f.tier->payload("f")->content, "version2");
  // A download serves only the new version.
  std::string got;
  f.tier->download(f.client_node, "f",
                   [&](const mr::FilePayload& p) { got = *p.content; },
                   [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_EQ(got, "version2");
  EXPECT_EQ(f.tier->bytes_served(), 8);
}

TEST(SingleShardTier, ConcurrentDownloadsShareLink) {
  Fixture f;
  const NodeId c2 = f.net.add_node(net::NodeConfig{});
  f.tier->stage("big", mr::FilePayload::of_size(12'500'000,
                                                common::Hasher::of("b")));
  int done = 0;
  for (const NodeId c : {f.client_node, c2}) {
    f.tier->download(c, "big", [&](const mr::FilePayload&) { ++done; },
                     [](const std::string& why) { FAIL() << why; });
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
  // Two 1-second downloads through one 100 Mbit uplink: ~2 s.
  EXPECT_GT(f.sim.now().as_seconds(), 1.9);
  EXPECT_EQ(f.egress(), 2 * 12'500'000);
}

TEST(SingleShardTier, ModelledPayloadsServeSizesOnly) {
  Fixture f;
  f.tier->stage("modelled", mr::FilePayload::of_size(1000,
                                                     common::Hasher::of("m")));
  mr::FilePayload got;
  f.tier->download(f.client_node, "modelled",
                   [&](const mr::FilePayload& p) { got = p; },
                   [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_EQ(got.size, 1000);
  EXPECT_FALSE(got.materialised());
  EXPECT_EQ(got.digest, common::Hasher::of("m"));
}

}  // namespace
}  // namespace vcmr::server
