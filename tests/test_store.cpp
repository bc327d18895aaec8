// Tests for vcmr::store — the distributed storage tier.
//
// Five families:
//  1. StorageTier unit tests: shard routing by name hash, per-shard outage,
//     per-shard and tier counters.
//  2. ReplicaDirectory unit tests: advert lifecycle, TTL eviction, trust
//     gate, requester exclusion, Bloom membership.
//  3. Default-off regression: a scenario that carries storage-tier config
//     but leaves the store disabled and the tier single-shard stays
//     bit-identical to the seed golden traces.
//  4. End-to-end correctness: sharded tiers and the volunteer replica store
//     (including Bloom false-positive redirects and per-shard outages) keep
//     word-count output byte-identical to the local-runtime oracle.
//  5. The scheduler's deferral gate: trust, store-gate and locality
//     deferrals in one pinned run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bloom.h"
#include "common/error.h"
#include "common/hash.h"
#include "copy_counter.h"
#include "core/cluster.h"
#include "fault/fault.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "store/store.h"

namespace vcmr {
namespace {

// --- 1. StorageTier ---------------------------------------------------------

struct TierFixture {
  obs::ScopedMetricsRegistry metrics;  ///< first: outlives everything below
  sim::Simulation sim{7};
  net::Network net{sim};
  net::HttpService http{net};
  NodeId primary_node;
  NodeId client_node;
  std::vector<NodeId> shard_nodes;
  store::StorageTier tier;

  explicit TierFixture(int n_shards = 1)
      : primary_node(net.add_node(net::NodeConfig{})),
        client_node(net.add_node(net::NodeConfig{})),
        tier(http, primary_node) {
    for (int s = 1; s < n_shards; ++s) {
      const NodeId n = net.add_node(net::NodeConfig{});
      shard_nodes.push_back(n);
      tier.add_shard(n);
    }
  }

  std::int64_t egress(int shard) const {
    return metrics.registry().counter_value(
        "store", "egress_bytes", {{"shard", std::to_string(shard)}});
  }
};

TEST(StorageTier, SingleShardHoldsEveryFile) {
  TierFixture f;
  f.tier.stage("chunk0", mr::FilePayload::of_content("hello"));
  EXPECT_EQ(f.tier.shard_for("chunk0"), 0);
  EXPECT_EQ(f.tier.shard_for("never-staged"), 0);
  EXPECT_TRUE(f.tier.has("chunk0"));
  ASSERT_NE(f.tier.payload("chunk0"), nullptr);
  EXPECT_EQ(*f.tier.payload("chunk0")->content, "hello");
}

TEST(StorageTier, ShardsFilesByNameHash) {
  TierFixture f(3);
  std::vector<int> used(3, 0);
  for (int i = 0; i < 24; ++i) {
    const std::string name = "chunk" + std::to_string(i);
    f.tier.stage(name, mr::FilePayload::of_content("payload"));
    const int s = f.tier.shard_for(name);
    EXPECT_EQ(s, static_cast<int>(common::fnv1a64(name) % 3)) << name;
    EXPECT_TRUE(f.tier.has(name)) << name;
    ++used[static_cast<std::size_t>(s)];
  }
  // The name hash actually spreads files across the tier.
  for (int s = 0; s < 3; ++s) EXPECT_GT(used[static_cast<std::size_t>(s)], 0);
  // Each file is served by its hash shard and by no other.
  for (int i = 0; i < 24; ++i) {
    f.tier.download(f.client_node, "chunk" + std::to_string(i), nullptr,
                    [](const std::string& why) { FAIL() << why; });
  }
  f.sim.run();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(f.egress(s), 7 * used[static_cast<std::size_t>(s)]) << s;
  }
  // A fourth shard would move files already placed by the three-shard hash.
  EXPECT_THROW(f.tier.add_shard(f.net.add_node(net::NodeConfig{})), Error);
}

TEST(StorageTier, DownloadRoutesToHolderShard) {
  TierFixture f(3);
  f.tier.stage("the-chunk", mr::FilePayload::of_content("bytes here"));
  const int holder = f.tier.shard_for("the-chunk");
  std::string got;
  f.tier.download(f.client_node, "the-chunk",
                  [&](const mr::FilePayload& p) { got = *p.content; },
                  [](const std::string& why) { FAIL() << why; });
  f.sim.run();
  EXPECT_EQ(got, "bytes here");
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(f.egress(s), s == holder ? static_cast<Bytes>(got.size()) : 0);
  }
  EXPECT_EQ(f.tier.bytes_served(), static_cast<Bytes>(got.size()));
}

TEST(StorageTier, UploadLandsOnItsHashShard) {
  TierFixture f(2);
  bool done = false;
  f.tier.upload(f.client_node, "map_out_3",
                mr::FilePayload::of_content("reduced"), [&] { done = true; },
                [](const std::string& why) { FAIL() << why; });
  // The upload is routed by the two-shard hash while it is still in flight.
  EXPECT_THROW(f.tier.add_shard(f.net.add_node(net::NodeConfig{})), Error);
  f.sim.run();
  ASSERT_TRUE(done);
  const int holder = f.tier.shard_for("map_out_3");
  EXPECT_TRUE(f.tier.has("map_out_3"));
  const obs::MetricsRegistry& reg = f.metrics.registry();
  EXPECT_EQ(reg.counter_value("store", "ingress_bytes",
                              {{"shard", std::to_string(holder)}}),
            7);
  EXPECT_EQ(reg.counter_value("store", "tier_ingress_bytes",
                              {{"tier", "project"}}),
            7);
}

TEST(StorageTier, PerShardOutage) {
  TierFixture f(2);
  // Find names landing on each shard.
  std::string on0, on1;
  for (int i = 0; on0.empty() || on1.empty(); ++i) {
    const std::string name = "file" + std::to_string(i);
    (f.tier.shard_for(name) == 0 ? on0 : on1) = name;
  }
  f.tier.stage(on0, mr::FilePayload::of_content("zero"));
  f.tier.stage(on1, mr::FilePayload::of_content("one"));

  f.tier.set_available(1, false);
  std::string got, why1;
  f.tier.download(f.client_node, on0,
                  [&](const mr::FilePayload& p) { got = *p.content; },
                  [](const std::string& w) { FAIL() << w; });
  f.tier.download(f.client_node, on1,
                  [](const mr::FilePayload&) { FAIL() << "shard 1 is down"; },
                  [&](const std::string& w) { why1 = w; });
  f.sim.run();
  EXPECT_EQ(got, "zero");  // shard 0 unaffected
  EXPECT_NE(why1.find("503"), std::string::npos);
  EXPECT_EQ(f.tier.rejected_unavailable(), 1);

  // -1 downs the whole tier; restoring brings every shard back.
  f.tier.set_available(-1, false);
  std::string why0;
  f.tier.download(f.client_node, on0,
                  [](const mr::FilePayload&) { FAIL() << "tier is down"; },
                  [&](const std::string& w) { why0 = w; });
  f.sim.run();
  EXPECT_NE(why0.find("503"), std::string::npos);
  EXPECT_EQ(f.tier.rejected_unavailable(), 2);
  f.tier.set_available(-1, true);
  std::string got1;
  f.tier.download(f.client_node, on1,
                  [&](const mr::FilePayload& p) { got1 = *p.content; },
                  [](const std::string& w) { FAIL() << w; });
  f.sim.run();
  EXPECT_EQ(got1, "one");
}

TEST(StorageTier, TransfersNeverCopyCallbacks) {
  TierFixture f;
  f.tier.stage("present", mr::FilePayload::of_content("x"));
  struct Outcome {
    CopyCount done, failed;
  };
  Outcome got, missing, down, put, put_down;
  const auto download = [&](const char* name, Outcome& o) {
    f.tier.download(f.client_node, name, CountingFn(o.done),
                    CountingFn(o.failed));
    f.sim.run();
  };
  const auto upload = [&](const char* name, Outcome& o) {
    f.tier.upload(f.client_node, name, mr::FilePayload::of_content("y"),
                  CountingFn(o.done), CountingFn(o.failed));
    f.sim.run();
  };
  download("present", got);
  download("absent", missing);  // 404
  upload("fresh", put);
  f.tier.set_available(0, false);  // 503 outage
  download("present", down);
  upload("refused", put_down);

  EXPECT_EQ(got.done.calls, 1);
  EXPECT_EQ(put.done.calls, 1);
  for (const Outcome* o : {&missing, &down, &put_down}) {
    EXPECT_EQ(o->done.calls, 0);
    EXPECT_EQ(o->failed.calls, 1);
  }
  for (const Outcome* o : {&got, &missing, &down, &put, &put_down}) {
    EXPECT_EQ(o->done.copies, 0);
    EXPECT_EQ(o->failed.copies, 0);
  }
  EXPECT_TRUE(f.tier.has("fresh"));
  EXPECT_FALSE(f.tier.has("refused"));
}

// --- 2. ReplicaDirectory ----------------------------------------------------

common::BloomFilter filter_with(std::initializer_list<const char*> names) {
  common::BloomFilter f(256, 4);
  for (const char* n : names) f.add(n);
  return f;
}

const std::function<bool(HostId)> kAllowAll = [](HostId) { return true; };

TEST(ReplicaDirectory, LookupFiltersByMembershipOrderAndMax) {
  store::ReplicaDirectory dir;
  const SimTime now = SimTime::seconds(100);
  const SimTime ttl = SimTime::minutes(15);
  dir.update(HostId{3}, filter_with({"a", "b"}), {NodeId{3}, 9000}, now);
  dir.update(HostId{1}, filter_with({"a"}), {NodeId{1}, 9000}, now);
  dir.update(HostId{2}, filter_with({"b"}), {NodeId{2}, 9000}, now);
  ASSERT_EQ(dir.size(), 3u);

  auto srcs = dir.lookup("a", now, ttl, HostId::invalid(), 8, kAllowAll);
  ASSERT_EQ(srcs.size(), 2u);  // host 2's filter definitely lacks "a"
  EXPECT_EQ(srcs[0].host, HostId{1});  // equal last_seen: host-id tiebreak
  EXPECT_EQ(srcs[1].host, HostId{3});
  EXPECT_EQ(srcs[0].endpoint.node, NodeId{1});

  // Most-recently-seen first: a refresh promotes host 3 past host 1, and the
  // freshest host wins the lone `max` slot.
  dir.update(HostId{3}, filter_with({"a", "b"}), {NodeId{3}, 9000},
             now + SimTime::seconds(30));
  srcs = dir.lookup("a", now + SimTime::seconds(30), ttl, HostId::invalid(), 8,
                    kAllowAll);
  ASSERT_EQ(srcs.size(), 2u);
  EXPECT_EQ(srcs[0].host, HostId{3});
  EXPECT_EQ(srcs[1].host, HostId{1});
  srcs = dir.lookup("a", now + SimTime::seconds(30), ttl, HostId::invalid(), 1,
                    kAllowAll);
  ASSERT_EQ(srcs.size(), 1u);
  EXPECT_EQ(srcs[0].host, HostId{3});

  // `max` caps, `except` skips the requester itself.
  EXPECT_EQ(dir.lookup("a", now, ttl, HostId::invalid(), 1, kAllowAll).size(),
            1u);
  srcs = dir.lookup("a", now, ttl, HostId{1}, 8, kAllowAll);
  ASSERT_EQ(srcs.size(), 1u);
  EXPECT_EQ(srcs[0].host, HostId{3});

  // The reputation gate: untrusted hosts are never handed out.
  srcs = dir.lookup("a", now, ttl, HostId::invalid(), 8,
                    [](HostId h) { return h == HostId{3}; });
  ASSERT_EQ(srcs.size(), 1u);
  EXPECT_EQ(srcs[0].host, HostId{3});
}

TEST(ReplicaDirectory, EmptyFilterRemovesEntry) {
  store::ReplicaDirectory dir;
  const SimTime now = SimTime::seconds(5);
  dir.update(HostId{4}, filter_with({"x"}), {NodeId{4}, 9000}, now);
  EXPECT_TRUE(dir.knows(HostId{4}));
  // A crashed client's first advert after restart is empty: serve points go.
  dir.update(HostId{4}, common::BloomFilter(256, 4), {NodeId{4}, 9000}, now);
  EXPECT_FALSE(dir.knows(HostId{4}));
  EXPECT_EQ(dir.size(), 0u);
}

TEST(ReplicaDirectory, TtlEvictsStaleAdverts) {
  store::ReplicaDirectory dir;
  const SimTime ttl = SimTime::minutes(15);
  dir.update(HostId{1}, filter_with({"x"}), {NodeId{1}, 9000},
             SimTime::seconds(0));
  dir.update(HostId{2}, filter_with({"x"}), {NodeId{2}, 9000},
             SimTime::minutes(10));

  // At t=20min host 1's advert (age 20min) is stale, host 2's (10min) fresh.
  const auto srcs =
      dir.lookup("x", SimTime::minutes(20), ttl, HostId::invalid(), 8,
                 kAllowAll);
  ASSERT_EQ(srcs.size(), 1u);
  EXPECT_EQ(srcs[0].host, HostId{2});
  EXPECT_EQ(dir.expired(), 1);
  EXPECT_FALSE(dir.knows(HostId{1}));  // lazily evicted, not just skipped
  EXPECT_TRUE(dir.knows(HostId{2}));

  // A refresh resurrects the host.
  dir.update(HostId{1}, filter_with({"x"}), {NodeId{1}, 9000},
             SimTime::minutes(20));
  EXPECT_EQ(dir.lookup("x", SimTime::minutes(20), ttl, HostId::invalid(), 8,
                       kAllowAll)
                .size(),
            2u);
}

// --- 3. default-off bit-identity -------------------------------------------

// Mirrors FaultRegression.NoFaultsBitIdenticalBoincMr, but with the storage
// tier explicitly configured (single shard, store disabled, non-default
// Bloom geometry): disabled-store config must be inert — no extra events,
// RNG draws, or wire bytes.
TEST(StoreRegression, DisabledStoreBitIdenticalToSeed) {
  core::Scenario s;
  s.seed = 11;
  s.n_nodes = 8;
  s.n_maps = 6;
  s.n_reducers = 2;
  s.input_size = 60LL * 1000 * 1000;
  s.boinc_mr = true;
  s.data_servers.n_shards = 1;
  s.project.volunteer_store.enabled = false;
  s.project.volunteer_store.filter_bits = 8192;  // inert while disabled
  s.project.volunteer_store.max_store_peers = 7;

  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(out.metrics.total_seconds, 205.092772);
  EXPECT_EQ(out.server_bytes_sent, 120025909);
  EXPECT_EQ(out.server_bytes_received, 140783545);
  EXPECT_EQ(out.interclient_bytes, 138000000);
  EXPECT_EQ(out.scheduler_rpcs, 34);
  EXPECT_EQ(out.backoffs, 26);
  EXPECT_EQ(cluster.simulation().events_executed(), 455);
  EXPECT_EQ(out.store_fetches, 0);
  EXPECT_EQ(out.store_misses, 0);
  EXPECT_EQ(out.store_bytes, 0);
  const obs::MetricsRegistry& reg = cluster.metrics();
  EXPECT_EQ(reg.counter_total("scheduler", "store_adverts"), 0);
  EXPECT_EQ(reg.counter_total("scheduler", "store_peers_attached"), 0);
  EXPECT_EQ(reg.counter_total("scheduler", "store_gate_skips"), 0);
  EXPECT_TRUE(cluster.shard_nodes().empty());
}

// --- 4. end-to-end correctness ----------------------------------------------

std::string corpus(Bytes size, std::uint64_t seed) {
  common::RngStreamFactory f(seed);
  common::Rng rng = f.stream("corpus");
  mr::ZipfOptions zo;
  zo.vocabulary = 500;
  return mr::ZipfCorpus(zo).generate(size, rng);
}

std::vector<mr::KeyValue> oracle(const std::string& text, int maps, int reds) {
  mr::register_builtin_apps();
  const mr::MapReduceApp* app = mr::AppRegistry::instance().find("word_count");
  mr::LocalJobOptions opts;
  opts.n_maps = maps;
  opts.n_reducers = reds;
  return mr::run_local(*app, text, opts).output;
}

core::Scenario store_scenario(const std::string& text) {
  core::Scenario s;
  s.seed = 19;
  s.n_nodes = 8;
  s.n_maps = 6;
  s.n_reducers = 2;
  s.input_text = text;
  s.boinc_mr = true;
  s.project.delay_bound = SimTime::minutes(5);
  s.time_limit = SimTime::hours(12);
  return s;
}

TEST(StoreEndToEnd, ShardedTierMatchesOracle) {
  const std::string text = corpus(200 * 1024, 41);
  core::Scenario s = store_scenario(text);
  s.data_servers.n_shards = 3;
  core::Cluster cluster(s);
  ASSERT_EQ(cluster.shard_nodes().size(), 2u);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 6, 2));
  // The tier actually spread load: more than one shard served bytes.
  int shards_serving = 0;
  for (const auto& [key, c] : cluster.metrics().counters()) {
    if (key.component == "store" && key.name == "egress_bytes" &&
        c.value() > 0) {
      ++shards_serving;
    }
  }
  EXPECT_GE(shards_serving, 2);
}

TEST(StoreEndToEnd, ShardOutageHealsAndMatchesOracle) {
  const std::string text = corpus(150 * 1024, 41);
  core::Scenario s = store_scenario(text);
  s.data_servers.n_shards = 2;
  fault::ServerOutage o;
  o.down_at = SimTime::seconds(5);
  o.up_at = SimTime::seconds(40);
  o.shard = 1;
  s.faults.server_outages.push_back(o);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), oracle(text, 6, 2));
  const obs::MetricsRegistry& reg = cluster.metrics();
  EXPECT_EQ(fault::injections(reg, "server_down"), 1);
  EXPECT_EQ(fault::injections(reg, "server_up"), 1);
}

// Shared-input job (every map reads the same staged file) with the
// volunteer store on: once the first downloads seed volunteer replicas, the
// dispatch gate points later assignments at them and chunk egress moves off
// the project shards. Output must stay byte-identical to the oracle, and —
// the PR 3 interaction — store misses must never enter the failed-fetch /
// holder-invalidation path.
core::Scenario volunteer_store_scenario(const std::string& text) {
  core::Scenario s = store_scenario(text);
  s.n_nodes = 10;
  s.project.volunteer_store.enabled = true;
  s.project.volunteer_store.filter_bits = 1024;
  s.project.volunteer_store.dispatch_gate_width = 1;
  // Short runs must be able to trust hosts or the gate never finds a
  // serve point (default reputation needs 10 straight valids and a decayed
  // prior, which a 6-map job cannot produce).
  s.project.reputation.min_consecutive_valid = 1;
  s.project.reputation.error_rate_prior = 0.0;
  s.project.report_fetch_failures = true;  // must stay untriggered by misses
  return s;
}

server::MrJobSpec shared_spec(const std::string& name,
                              const std::string& text) {
  server::MrJobSpec spec;
  spec.name = name;
  spec.n_maps = 6;
  spec.n_reducers = 2;
  spec.input_text = text;
  spec.shared_input = true;
  return spec;
}

// The single-server oracle: the same job on the same scenario with the
// storage tier at its defaults (one shard, store off).
std::vector<mr::KeyValue> single_server_output(core::Scenario s,
                                               const server::MrJobSpec& spec) {
  s.data_servers = store::StorageTierConfig{};
  s.project.volunteer_store = store::VolunteerStoreConfig{};
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job(spec);
  EXPECT_TRUE(out.metrics.completed);
  return cluster.collect_output(out.job);
}

TEST(StoreEndToEnd, VolunteerStoreMatchesSingleServerOracle) {
  const std::string text = corpus(200 * 1024, 43);
  core::Scenario s = volunteer_store_scenario(text);
  const server::MrJobSpec spec = shared_spec("shared", text);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job(spec);
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_GT(cluster.metrics().counter_total("scheduler", "store_adverts"), 0);
  EXPECT_EQ(cluster.collect_output(out.job), single_server_output(s, spec));
  // Egress convergence: 12 map results run, but only the handful of hosts
  // that were released server-sourced ever hit the project tier — everyone
  // else self-serves from the advertised local copy.
  const Bytes chunk =
      cluster.project().storage().payload("shared_shared_input")->size;
  EXPECT_LT(cluster.metrics().counter_value("store", "tier_egress_bytes",
                                            {{"tier", "project"}}),
            12 * chunk);
  // Bloom misses (if any) redirect; they never report failed fetches and
  // never invalidate holders.
  EXPECT_EQ(out.fetch_failures_reported, 0);
  EXPECT_EQ(out.maps_invalidated, 0);
}

// The volunteer-serve path end to end, deterministically: with trusted
// single-replica mode (quorum 1) the first validated map makes its host a
// trusted chunk holder while the dispatch gate is still deferring every
// other host. Once trust lands, the remaining assignments carry that
// host's serve point and the chunk never leaves the project tier again —
// one server download for the whole 18-map job.
TEST(StoreEndToEnd, VolunteerStoreServesChunkOffTheProjectTier) {
  const std::string text = corpus(200 * 1024, 43);
  core::Scenario s = volunteer_store_scenario(text);
  s.n_nodes = 4;
  s.n_maps = 18;
  s.project.min_quorum = 1;
  s.project.target_nresults = 1;
  s.project.volunteer_store.dispatch_max_skips = 50;
  server::MrJobSpec spec = shared_spec("shared-trusted", text);
  spec.n_maps = 18;
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job(spec);
  ASSERT_TRUE(out.metrics.completed);
  const obs::MetricsRegistry& reg = cluster.metrics();
  EXPECT_GT(reg.counter_total("scheduler", "store_adverts"), 0);
  EXPECT_GT(reg.counter_total("scheduler", "store_peers_attached"), 0);
  EXPECT_EQ(cluster.collect_output(out.job), single_server_output(s, spec));
  EXPECT_GT(out.store_fetches, 0);
  EXPECT_GT(out.store_bytes, 0);
  // The project tier served the shared chunk exactly once.
  EXPECT_EQ(
      cluster.metrics().counter_value("store", "tier_egress_bytes",
                                      {{"tier", "project"}}),
      cluster.project().storage().payload("shared-trusted_shared_input")->size);
  EXPECT_EQ(out.fetch_failures_reported, 0);
  EXPECT_EQ(out.maps_invalidated, 0);
}

TEST(StoreEndToEnd, VolunteerStoreUnderChurnMatchesSingleServerOracle) {
  const std::string text = corpus(150 * 1024, 47);
  core::Scenario s = volunteer_store_scenario(text);
  volunteer::ChurnConfig churn;
  churn.mean_on = SimTime::seconds(240);
  churn.mean_off = SimTime::seconds(30);
  s.churn = churn;
  s.project.delay_bound = SimTime::minutes(10);
  const server::MrJobSpec spec = shared_spec("shared-churn", text);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job(spec);
  ASSERT_TRUE(out.metrics.completed);
  EXPECT_EQ(cluster.collect_output(out.job), single_server_output(s, spec));
  EXPECT_EQ(out.fetch_failures_reported, 0);
  EXPECT_EQ(out.maps_invalidated, 0);
}

// The dispatch gate is bounded: when nobody can ever be trusted, gated
// results are deferred at most dispatch_max_skips times and then released
// server-sourced — the gate never starves the job.
TEST(StoreEndToEnd, DispatchGateReleasesWithoutReplicas) {
  const std::string text = corpus(100 * 1024, 53);
  core::Scenario s = store_scenario(text);
  s.project.volunteer_store.enabled = true;
  s.project.volunteer_store.dispatch_gate_width = 1;
  s.project.volunteer_store.dispatch_max_skips = 3;
  // Default reputation: nobody reaches trusted within this run, so
  // store_sources stays empty and every gated dispatch must be released by
  // the skip bound.
  const server::MrJobSpec spec = shared_spec("gated", text);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job(spec);
  ASSERT_TRUE(out.metrics.completed);
  const obs::MetricsRegistry& reg = cluster.metrics();
  EXPECT_GT(reg.counter_total("scheduler", "store_gate_skips"), 0);
  EXPECT_EQ(reg.counter_total("scheduler", "store_peers_attached"), 0);
  EXPECT_EQ(cluster.collect_output(out.job), single_server_output(s, spec));
  EXPECT_EQ(out.store_fetches, 0);
}

// The scheduler's one deferral gate with every reason live in one run:
// adaptive replication holds single-replica work for trusted hosts, the
// dispatch gate holds the shared chunk for a volunteer replica, and
// locality-aware reduce holds partitions for their best holder. Each
// reason keeps its own bound and counter, so the per-reason totals, the
// event count and the makespan all pin the gate's behaviour.
TEST(DeferralGate, AllThreeReasonsInOneRun) {
  core::Scenario s;
  s.seed = 29;
  s.n_nodes = 8;
  s.n_maps = 12;
  s.n_reducers = 3;
  s.input_size = 60LL * 1000 * 1000;
  s.boinc_mr = true;
  s.project.reputation.mode = rep::PolicyMode::kAdaptive;
  s.project.reputation.min_consecutive_valid = 1;
  s.project.reputation.error_rate_prior = 0.0;
  s.project.reputation.trust_max_skips = 2;
  s.project.volunteer_store.enabled = true;
  s.project.volunteer_store.dispatch_gate_width = 1;
  s.project.volunteer_store.dispatch_max_skips = 4;
  s.project.locality_aware_reduce = true;
  server::MrJobSpec spec;
  spec.name = "gate";
  spec.n_maps = s.n_maps;
  spec.n_reducers = s.n_reducers;
  spec.input_size = s.input_size;
  spec.shared_input = true;
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job(spec);
  ASSERT_TRUE(out.metrics.completed);
  const obs::MetricsRegistry& reg = cluster.metrics();
  EXPECT_EQ(reg.counter_total("scheduler", "trust_skips"), 27);
  EXPECT_EQ(reg.counter_total("scheduler", "store_gate_skips"), 211);
  EXPECT_EQ(reg.counter_total("scheduler", "locality_skips"), 5);
  EXPECT_EQ(cluster.simulation().events_executed(), 935);
  EXPECT_EQ(out.metrics.total_seconds, 566.686788);
}

// --- Bloom false positive: miss/redirect, not failure ------------------------

// A peer that matched a Bloom advert but does not hold the chunk refuses
// synchronously; fetch_store reports a miss after at most a handshake RTT
// and burns no retry budget.
TEST(StoreFalsePositive, FetchStoreMissesCheaply) {
  obs::ScopedMetricsRegistry scope;
  sim::Simulation sim{5};
  net::Network net{sim};
  net::NodeConfig c;
  c.latency = SimTime::millis(10);
  const NodeId server_node = net.add_node(c);
  const NodeId fetcher_node = net.add_node(c);
  client::PeerRegistry registry;
  client::MapOutputServer peer(sim, net, server_node,
                               net::Endpoint{server_node, 9000}, registry);
  peer.offer("other_chunk", mr::FilePayload::of_content("not what you want"));

  client::PeerFetcher fetcher(sim, net, fetcher_node, registry,
                              /*establisher=*/nullptr);
  bool missed = false;
  SimTime missed_at = SimTime::infinity();
  fetcher.fetch_store(net::Endpoint{server_node, 9000}, "wanted_chunk",
                      [](const mr::FilePayload&) { FAIL() << "served a FP"; },
                      [&](const std::string&) {
                        missed = true;
                        missed_at = sim.now();
                      });
  // A hit on the same machinery still works.
  std::string got;
  fetcher.fetch_store(net::Endpoint{server_node, 9000}, "other_chunk",
                      [&](const mr::FilePayload& p) { got = *p.content; },
                      [](const std::string& why) { FAIL() << why; });
  sim.run();
  EXPECT_TRUE(missed);
  const obs::MetricsRegistry& reg = scope.registry();
  EXPECT_EQ(reg.counter_value("interclient", "store_misses"), 1);
  // A miss is not exhausted retries.
  EXPECT_EQ(reg.counter_value("interclient", "fetch_failures"), 0);
  EXPECT_EQ(reg.counter_value("interclient", "fetch_ok"), 1);
  EXPECT_EQ(got, "not what you want");
  // One probe, one handshake: the redirect decision lands within ~1 RTT.
  EXPECT_LE(missed_at, SimTime::millis(100));
}

TEST(StoreFalsePositive, OfflinePeerIsAMissNotAFailure) {
  obs::ScopedMetricsRegistry scope;
  sim::Simulation sim{5};
  net::Network net{sim};
  const NodeId server_node = net.add_node(net::NodeConfig{});
  const NodeId fetcher_node = net.add_node(net::NodeConfig{});
  client::PeerRegistry registry;
  client::MapOutputServer peer(sim, net, server_node,
                               net::Endpoint{server_node, 9000}, registry);
  peer.offer("chunk", mr::FilePayload::of_content("x"));
  net.set_online(server_node, false);

  client::PeerFetcher fetcher(sim, net, fetcher_node, registry, nullptr);
  bool missed = false;
  fetcher.fetch_store(net::Endpoint{server_node, 9000}, "chunk",
                      [](const mr::FilePayload&) { FAIL() << "peer offline"; },
                      [&](const std::string&) { missed = true; });
  sim.run();
  EXPECT_TRUE(missed);
  EXPECT_EQ(scope.registry().counter_value("interclient", "store_misses"), 1);
}

}  // namespace
}  // namespace vcmr
