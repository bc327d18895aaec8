#include "seed_pool.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

namespace vcmr::bench {

SeedPool::SeedPool(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

int SeedPool::default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void SeedPool::run_indexed(int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::atomic<int> next{0};
  const auto worker = [&] {
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      // One registry scope per task, installed on the worker: the task is
      // metric-isolated from every other task and from the root registry.
      obs::ScopedMetricsRegistry task_scope;
      try {
        body(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };
  const int n_workers = jobs_ < n ? jobs_ : n;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_workers));
  for (int w = 0; w < n_workers; ++w) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  // join() is the synchronization point: after it, errors/slots writes
  // from the workers are visible here. Fail the whole sweep on the
  // lowest-index failure so reruns are reproducible.
  for (int i = 0; i < n; ++i) {
    const auto& err = errors[static_cast<std::size_t>(i)];
    if (!err) continue;
    try {
      std::rethrow_exception(err);
    } catch (const SeedPoolError&) {
      throw;
    } catch (const std::exception& e) {
      throw SeedPoolError(i, e.what());
    } catch (...) {
      throw SeedPoolError(i, "unknown exception");
    }
  }
}

int parse_jobs_flag(int& argc, char** argv) {
  int jobs = SeedPool::default_jobs();
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const char* arg = argv[r];
    const char* val = nullptr;
    if (std::strcmp(arg, "--jobs") == 0) {
      if (r + 1 >= argc) {
        std::fprintf(stderr, "error: --jobs requires a value\n");
        std::exit(2);
      }
      val = argv[++r];
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      val = arg + 7;
    }
    if (val == nullptr) {
      argv[w++] = argv[r];
      continue;
    }
    char* end = nullptr;
    const long v = std::strtol(val, &end, 10);
    if (end == val || *end != '\0' || v < 1) {
      std::fprintf(stderr, "error: invalid --jobs value '%s'\n", val);
      std::exit(2);
    }
    jobs = static_cast<int>(v);
  }
  argv[w] = nullptr;
  argc = w;
  return jobs;
}

}  // namespace vcmr::bench
