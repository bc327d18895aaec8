#pragma once
// bench::SeedPool — fixed-size worker pool for embarrassingly parallel
// sweep execution.
//
// Every experiment binary is a loop over independent (config, seed) points:
// one simulation, one metrics registry, one RNG universe per point, no
// shared state between points (the BOINC work-unit shape, applied to our
// own harness). The pool runs those points on N worker threads and hands
// the results back **in task order** regardless of completion order, so
// every stdout row, golden pin, and BENCH_*.json doc a bench renders from
// the results is byte-identical to a serial sweep.
//
// Determinism argument, in short:
//   - each task runs under its own ScopedMetricsRegistry (thread-local
//     current pointer, see obs/metrics.h), and every Cluster it builds
//     counts into its own registry nested inside it, with its own
//     simulation + RNG streams, so nothing a task computes depends on
//     scheduling;
//   - results come back indexed by task — a task that needs its counters
//     later returns a copy of its cluster's registry with its value — and
//     callers reduce them in task (= seed) order: integer counter merges
//     are order-independent and the floating-point reductions run in seed
//     order whatever the completion order;
//   - a traced Cluster records its timeline into its own recorder,
//     reached through its own simulation, and each worker thread has its
//     own log time-provider slot, so no cross-thread observer state
//     exists.
//
// The pool is the benches' only runner: `--jobs 1` is a one-worker pool.
// tests/test_seed_pool.cpp keeps a plain serial loop as the reference the
// pool is pinned against, and CI byte-compares `--jobs 4` docs with the
// committed `--jobs 1` ones.

#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace vcmr::bench {

/// A sweep task failed. Carries the task index (the seed's position in the
/// submitted batch) so the sweep can die loudly naming the seed instead of
/// averaging over a silent hole.
class SeedPoolError : public std::runtime_error {
 public:
  SeedPoolError(int task_index, const std::string& what)
      : std::runtime_error("seed task " + std::to_string(task_index) + ": " +
                           what),
        task_index_(task_index) {}

  int task_index() const { return task_index_; }

 private:
  int task_index_;
};

class SeedPool {
 public:
  /// `jobs` worker threads (clamped to >= 1).
  explicit SeedPool(int jobs);

  int jobs() const { return jobs_; }

  /// std::thread::hardware_concurrency(), min 1 — the `--jobs` default.
  static int default_jobs();

  /// Runs fn(i) for i in [0, n) on the workers; returns the results in
  /// task order. Each invocation runs under a fresh ScopedMetricsRegistry,
  /// discarded afterwards. If any task throws, the batch still drains, then
  /// the lowest-index failure is rethrown as a SeedPoolError naming the
  /// task.
  template <class Fn>
  auto map(int n, Fn&& fn) -> std::vector<decltype(fn(0))> {
    return map(n, std::forward<Fn>(fn), [](int, const auto&) {});
  }

  /// map(), also calling on_ready(i, result) once per task, in task order,
  /// as soon as task i and every task before it have finished (calls are
  /// serialized; with one worker each follows its own task). Lets a long
  /// sweep stream its rows, so an interrupted run still shows its prefix.
  template <class Fn, class OnReady>
  auto map(int n, Fn&& fn, OnReady&& on_ready)
      -> std::vector<decltype(fn(0))> {
    using T = decltype(fn(0));
    std::vector<std::optional<T>> slots(static_cast<std::size_t>(n));
    std::mutex ready_mu;
    std::size_t ready = 0;  ///< slots [0, ready) went to on_ready
    run_indexed(n, [&](int i) {
      T value = fn(i);
      std::lock_guard<std::mutex> lock(ready_mu);
      slots[static_cast<std::size_t>(i)].emplace(std::move(value));
      for (; ready < slots.size() && slots[ready]; ++ready) {
        on_ready(static_cast<int>(ready), *slots[ready]);
      }
    });
    std::vector<T> out;
    out.reserve(slots.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  /// Type-erased core: min(jobs, n) workers pull task indices from a
  /// shared cursor; every body(i) runs under its own scoped registry.
  void run_indexed(int n, const std::function<void(int)>& body);

  int jobs_;
};

/// Strips `--jobs N` / `--jobs=N` from argv (so positional argument
/// handling in the benches is untouched) and returns N; default_jobs()
/// when the flag is absent. Malformed or < 1 values exit(2).
int parse_jobs_flag(int& argc, char** argv);

}  // namespace vcmr::bench
