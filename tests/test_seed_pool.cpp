// Tests for bench::SeedPool — the parallel sweep runner — and its
// determinism contract: a pooled sweep's rendered rows are byte-identical
// to a plain serial loop's at any --jobs value, results come back
// in task order no matter the completion order, and a throwing seed fails
// the whole sweep loudly, naming the seed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/cluster.h"
#include "obs/metrics.h"
#include "seed_pool.h"

namespace vcmr {
namespace {

using bench::SeedPool;
using bench::SeedPoolError;

// --- map(): ordering ------------------------------------------------------

TEST(SeedPool, MapReturnsResultsInTaskOrder) {
  for (const int jobs : {1, 2, 8}) {
    SeedPool pool(jobs);
    const auto out = pool.map(17, [](int i) { return i * i; });
    ASSERT_EQ(out.size(), 17u);
    for (int i = 0; i < 17; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(SeedPool, SlowSeedsStillEmitInSeedOrder) {
  // Seed 0 takes much longer than the rest, so with >1 worker it finishes
  // last — yet the result vector is still in seed order.
  std::mutex mu;
  std::vector<int> completion_order;
  SeedPool pool(4);
  const auto out = pool.map(6, [&](int i) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(i == 0 ? 150 : 5));
    std::lock_guard<std::mutex> lock(mu);
    completion_order.push_back(i);
    return 10 + i;
  });
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 10 + i);
  // The slow seed really did complete out of submission order.
  ASSERT_EQ(completion_order.size(), 6u);
  EXPECT_EQ(completion_order.back(), 0);
}

TEST(SeedPool, OnReadyStreamsResultsInTaskOrder) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> started{0};
    std::vector<int> ready_order;
    std::vector<int> started_at_ready;
    SeedPool pool(jobs);
    const auto out = pool.map(
        6,
        [&](int i) {
          started.fetch_add(1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(i == 0 ? 150 : 5));
          return 10 + i;
        },
        [&](int i, const int& v) {
          EXPECT_EQ(v, 10 + i);
          ready_order.push_back(i);
          started_at_ready.push_back(started.load());
        });
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(ready_order, (std::vector<int>{0, 1, 2, 3, 4, 5})) << jobs;
    if (jobs == 1) {
      // One worker: each result streams before the next task starts.
      EXPECT_EQ(started_at_ready, (std::vector<int>{1, 2, 3, 4, 5, 6}));
    }
  }
}

TEST(SeedPool, JobsClampedToAtLeastOne) {
  EXPECT_EQ(SeedPool(0).jobs(), 1);
  EXPECT_EQ(SeedPool(-3).jobs(), 1);
  EXPECT_EQ(SeedPool(5).jobs(), 5);
  EXPECT_GE(SeedPool::default_jobs(), 1);
}

// --- error propagation ----------------------------------------------------

TEST(SeedPool, ThrowingSeedFailsSweepNamingLowestIndex) {
  SeedPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.map(10, [&](int i) {
      if (i == 3 || i == 7) throw std::runtime_error("sim blew up");
      completed.fetch_add(1);
      return i;
    });
    FAIL() << "expected SeedPoolError";
  } catch (const SeedPoolError& e) {
    EXPECT_EQ(e.task_index(), 3);
    EXPECT_NE(std::string(e.what()).find("seed task 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sim blew up"), std::string::npos);
  }
  // The batch drains before the failure is rethrown (no abandoned tasks).
  EXPECT_EQ(completed.load(), 8);
}

// --- per-task registries ---------------------------------------------------

TEST(SeedPool, TasksCountIntoPrivateRegistries) {
  obs::MetricsRegistry& root = obs::MetricsRegistry::instance();
  const std::int64_t root_before = root.counter_total("pool_test", "ticks");
  SeedPool pool(4);
  // Each task returns a copy of the registry it counted into, as a bench
  // task returns its cluster's.
  const auto out = pool.map(8, [](int i) {
    obs::MetricsRegistry::instance()
        .counter("pool_test", "ticks")
        .add(i + 1);
    return std::make_pair(i, obs::MetricsRegistry::instance());
  });
  ASSERT_EQ(out.size(), 8u);
  obs::MetricsRegistry merged;
  for (int i = 0; i < 8; ++i) {
    const auto& [value, metrics] = out[static_cast<std::size_t>(i)];
    EXPECT_EQ(value, i);
    // Each task saw only its own increments.
    EXPECT_EQ(metrics.counter_total("pool_test", "ticks"), i + 1);
    merged.merge_from(metrics);
  }
  EXPECT_EQ(merged.counter_total("pool_test", "ticks"), 36);  // 1+2+...+8
  // Worker scopes never leaked into the calling thread's registry.
  EXPECT_EQ(root.counter_total("pool_test", "ticks"), root_before);
}

// --- --jobs flag parsing --------------------------------------------------

TEST(SeedPool, ParseJobsFlagStripsFlagAndKeepsPositionals) {
  const char* argv0[] = {"bench", "--jobs", "7", "3", "out.json", nullptr};
  char** argv = const_cast<char**>(argv0);
  int argc = 5;
  EXPECT_EQ(bench::parse_jobs_flag(argc, argv), 7);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "3");
  EXPECT_STREQ(argv[2], "out.json");
  EXPECT_EQ(argv[3], nullptr);
}

TEST(SeedPool, ParseJobsFlagEqualsFormAndLastWins) {
  const char* argv0[] = {"bench", "--jobs=2", "--jobs", "4", nullptr};
  char** argv = const_cast<char**>(argv0);
  int argc = 4;
  EXPECT_EQ(bench::parse_jobs_flag(argc, argv), 4);
  EXPECT_EQ(argc, 1);
}

TEST(SeedPool, ParseJobsFlagAbsentUsesDefault) {
  const char* argv0[] = {"bench", "5", nullptr};
  char** argv = const_cast<char**>(argv0);
  int argc = 2;
  EXPECT_EQ(bench::parse_jobs_flag(argc, argv), SeedPool::default_jobs());
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "5");
}

TEST(SeedPoolDeathTest, ParseJobsFlagRejectsMalformedValues) {
  const auto parse = [](std::vector<const char*> args) {
    args.push_back(nullptr);
    int argc = static_cast<int>(args.size()) - 1;
    bench::parse_jobs_flag(argc, const_cast<char**>(args.data()));
  };
  EXPECT_EXIT(parse({"bench", "--jobs", "zero"}),
              testing::ExitedWithCode(2), "invalid --jobs value");
  EXPECT_EXIT(parse({"bench", "--jobs=0"}), testing::ExitedWithCode(2),
              "invalid --jobs value");
  EXPECT_EXIT(parse({"bench", "--jobs"}), testing::ExitedWithCode(2),
              "--jobs requires a value");
}

// --- serial/parallel equivalence on a real miniature sweep ----------------
//
// The same shape the bench binaries use: a (config, seed) grid of real
// Cluster simulations, each returning its cluster's registry, rows rendered
// from the seed-ordered outcomes plus the merged registries. The serial
// reference is a plain loop on the calling thread; the pooled run must
// reproduce its rendered rows byte-for-byte at every --jobs value.

core::Scenario mini_scenario(int n_maps, std::uint64_t seed) {
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 6;
  s.n_maps = n_maps;
  s.n_reducers = 2;
  s.input_size = 20LL * 1000 * 1000;
  return s;
}

struct MiniSeed {
  bool completed = false;
  double total_seconds = 0;
  obs::MetricsRegistry metrics;  ///< the cluster's registry
};

MiniSeed run_mini_seed(int n_maps, int i) {
  core::Cluster cluster(mini_scenario(n_maps, 1 + static_cast<std::uint64_t>(i)));
  const core::RunOutcome out = cluster.run_job();
  return {out.metrics.completed, out.metrics.total_seconds, cluster.metrics()};
}

std::string render_mini_row(int n_maps, const std::vector<MiniSeed>& seeds,
                            const obs::MetricsRegistry& reg) {
  double total = 0;
  int ok = 0;
  for (const MiniSeed& r : seeds) {  // seed-order FP fold
    if (!r.completed) continue;
    ++ok;
    total += r.total_seconds;
  }
  common::JsonWriter row;
  row.field("maps", n_maps)
      .field("completed", ok)
      .field("makespan_s", ok > 0 ? total / ok : 0.0)
      .field("rpcs", reg.counter_total("scheduler", "rpcs"));
  return row.str();
}

std::vector<std::string> mini_sweep_serial(const std::vector<int>& configs,
                                           int n_seeds) {
  std::vector<std::string> rows;
  for (const int n_maps : configs) {
    obs::MetricsRegistry merged;
    std::vector<MiniSeed> seeds;
    for (int i = 0; i < n_seeds; ++i) {
      seeds.push_back(run_mini_seed(n_maps, i));
      merged.merge_from(seeds.back().metrics);
    }
    rows.push_back(render_mini_row(n_maps, seeds, merged));
  }
  return rows;
}

std::vector<std::string> mini_sweep_pooled(const std::vector<int>& configs,
                                           int n_seeds, int jobs) {
  SeedPool pool(jobs);
  const int n_configs = static_cast<int>(configs.size());
  const auto results = pool.map(n_configs * n_seeds, [&](int task) {
    return run_mini_seed(configs[static_cast<std::size_t>(task / n_seeds)],
                         task % n_seeds);
  });
  std::vector<std::string> rows;
  for (int c = 0; c < n_configs; ++c) {
    obs::MetricsRegistry merged;
    std::vector<MiniSeed> seeds;
    for (int i = 0; i < n_seeds; ++i) {
      const MiniSeed& r = results[static_cast<std::size_t>(c * n_seeds + i)];
      merged.merge_from(r.metrics);
      seeds.push_back(r);
    }
    rows.push_back(render_mini_row(configs[static_cast<std::size_t>(c)],
                                   seeds, merged));
  }
  return rows;
}

TEST(SeedPool, PooledSweepRowsByteIdenticalToSerialAtAnyJobs) {
  bench::silence_logs();
  const std::vector<int> configs = {2, 4};
  const int n_seeds = 3;
  const std::vector<std::string> serial = mini_sweep_serial(configs, n_seeds);
  ASSERT_EQ(serial.size(), configs.size());
  for (const int jobs : {1, 2, 8}) {
    const auto pooled = mini_sweep_pooled(configs, n_seeds, jobs);
    ASSERT_EQ(pooled.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(pooled[i], serial[i]) << "jobs=" << jobs << " row " << i;
    }
  }
}

TEST(SeedPool, PooledSweepBenchDocByteIdenticalToSerial) {
  // Doc-level pin: the full rows array a bench doc embeds — not just
  // individual rows — is byte-identical, so a regenerated BENCH_*.json
  // differs from a serial one only in the headline's wall fields.
  bench::silence_logs();
  const std::vector<int> configs = {3};
  const auto join = [](const std::vector<std::string>& rows) {
    std::string doc = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i) doc += ", ";
      doc += rows[i];
    }
    return doc + "]";
  };
  const std::string serial = join(mini_sweep_serial(configs, 2));
  EXPECT_EQ(join(mini_sweep_pooled(configs, 2, 2)), serial);
  EXPECT_EQ(join(mini_sweep_pooled(configs, 2, 8)), serial);
}

}  // namespace
}  // namespace vcmr
