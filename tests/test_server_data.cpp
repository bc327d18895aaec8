// Tests for the data server: staging, HTTP downloads/uploads with real
// payload delivery, failure paths, and traffic accounting.

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "store/data_server.h"

namespace vcmr::server {
namespace {

struct Fixture {
  sim::Simulation sim{21};
  net::Network net{sim};
  net::HttpService http{net};
  NodeId server_node;
  NodeId client_node;
  std::unique_ptr<store::DataServer> data;

  Fixture() {
    net::NodeConfig c;
    c.latency = SimTime::millis(2);
    server_node = net.add_node(c);
    client_node = net.add_node(c);
    data = std::make_unique<store::DataServer>(http, server_node);
  }
};

TEST(DataServer, StageAndQuery) {
  Fixture f;
  f.data->stage("input0", mr::FilePayload::of_content("hello"));
  EXPECT_TRUE(f.data->has("input0"));
  EXPECT_FALSE(f.data->has("other"));
  ASSERT_NE(f.data->payload("input0"), nullptr);
  EXPECT_EQ(*f.data->payload("input0")->content, "hello");
  EXPECT_EQ(f.data->file_count(), 1u);
}

TEST(DataServer, DownloadDeliversPayloadAndTakesTime) {
  Fixture f;
  const std::string body(12'500'000, 'x');  // 1 s at 100 Mbit
  f.data->stage("big", mr::FilePayload::of_content(body));
  std::string got;
  f.data->download(f.client_node, "big",
                   [&](const mr::FilePayload& p) { got = *p.content; },
                   [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_EQ(got.size(), body.size());
  EXPECT_GT(f.sim.now().as_seconds(), 0.99);
  EXPECT_EQ(f.data->downloads(), 1);
  EXPECT_EQ(f.data->bytes_served(), static_cast<Bytes>(body.size()));
}

TEST(DataServer, DownloadMissingFileFails) {
  Fixture f;
  std::string why;
  f.data->download(f.client_node, "ghost",
                   [](const mr::FilePayload&) { FAIL() << "delivered ghost"; },
                   [&](const std::string& w) { why = w; });
  f.sim.run();
  EXPECT_NE(why.find("404"), std::string::npos);
}

TEST(DataServer, UploadStagesAndNotifies) {
  Fixture f;
  std::string uploaded_name;
  f.data->set_upload_listener([&](const std::string& n) { uploaded_name = n; });
  bool done = false;
  f.data->upload(f.client_node, "out0",
                 mr::FilePayload::of_content("result bytes"),
                 [&] { done = true; },
                 [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(uploaded_name, "out0");
  EXPECT_TRUE(f.data->has("out0"));
  EXPECT_EQ(*f.data->payload("out0")->content, "result bytes");
  EXPECT_EQ(f.data->uploads(), 1);
  EXPECT_EQ(f.data->bytes_ingested(), 12);
}

TEST(DataServer, UploadFromOfflineClientFails) {
  Fixture f;
  f.net.set_online(f.client_node, false);
  bool failed = false;
  f.data->upload(f.client_node, "out0", mr::FilePayload::of_content("x"),
                 [] { FAIL() << "uploaded while offline"; },
                 [&](const std::string&) { failed = true; });
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(DataServer, DownloadInterruptedByServerOutage) {
  Fixture f;
  f.data->stage("big", mr::FilePayload::of_content(std::string(12'500'000, 'y')));
  bool failed = false;
  f.data->download(f.client_node, "big",
                   [](const mr::FilePayload&) { FAIL() << "completed"; },
                   [&](const std::string&) { failed = true; });
  f.sim.after(SimTime::seconds(0.3),
              [&] { f.net.set_online(f.server_node, false); });
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(DataServer, RestagingOverwrites) {
  Fixture f;
  f.data->stage("f", mr::FilePayload::of_content("v1"));
  f.data->stage("f", mr::FilePayload::of_content("version2"));
  EXPECT_EQ(*f.data->payload("f")->content, "version2");
  EXPECT_EQ(f.data->file_count(), 1u);
}

TEST(DataServer, ConcurrentDownloadsShareLink) {
  Fixture f;
  const NodeId c2 = f.net.add_node(net::NodeConfig{});
  f.data->stage("big", mr::FilePayload::of_size(12'500'000,
                                                common::Hasher::of("b")));
  int done = 0;
  for (const NodeId c : {f.client_node, c2}) {
    f.data->download(c, "big", [&](const mr::FilePayload&) { ++done; },
                     [](const std::string& why) { FAIL() << why; });
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
  // Two 1-second downloads through one 100 Mbit uplink: ~2 s.
  EXPECT_GT(f.sim.now().as_seconds(), 1.9);
  EXPECT_EQ(f.data->downloads(), 2);
}

TEST(DataServer, ModelledPayloadsServeSizesOnly) {
  Fixture f;
  f.data->stage("modelled", mr::FilePayload::of_size(1000,
                                                     common::Hasher::of("m")));
  mr::FilePayload got;
  f.data->download(f.client_node, "modelled",
                   [&](const mr::FilePayload& p) { got = p; },
                   [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_EQ(got.size, 1000);
  EXPECT_FALSE(got.materialised());
  EXPECT_EQ(got.digest, common::Hasher::of("m"));
}

}  // namespace
}  // namespace vcmr::server
