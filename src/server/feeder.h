#pragma once
// Feeder: keeps a bounded cache of ready-to-send results, the analogue of
// BOINC's shared-memory segment between the feeder daemon and scheduler
// CGIs (§III.B mentions the feeder creating result instances alongside the
// transitioner). The scheduler only hands out results present in this
// cache, so feeder cadence adds dispatch latency exactly as in BOINC.
//
// With several jobs in the system the cache is the fairness bottleneck: in
// global result-id order a big job's ready backlog fills every slot and a
// later job never dispatches until the backlog drains below the cache size.
// The feeder therefore tops the cache up round-robin across jobs; with a
// single job the interleave degenerates to exactly the global id order, so
// single-job dispatch — and every golden trace — is unchanged.
//
// A refill pass reads the database's ready queues (per-job shards kept in
// sync at state-transition time) instead of rescanning the result table,
// and the cache carries a membership set alongside the dispatch-order
// vector, so top-up dedup and scheduler take/invalidate do O(log n) lookups
// rather than scanning the cache.

#include <set>
#include <vector>

#include "db/database.h"

namespace vcmr::server {

class Feeder {
 public:
  Feeder(db::Database& db, int cache_size)
      : db_(db), cache_size_(cache_size) {}

  /// One feeder pass: drop entries that are no longer unsent, then top the
  /// cache up from the database's ready queues — audit results first, then
  /// round-robin across job shards. Returns the number of cache rows touched
  /// (evicted + added), for daemon telemetry.
  int refill();

  const std::vector<ResultId>& cache() const { return cache_; }

  /// Scheduler took (or invalidated) an entry.
  void remove(ResultId id);

  /// Server crash/restore: the shared-memory segment does not survive a
  /// daemon restart, and cached ResultIds may not exist in a rolled-back
  /// database. The next refill() repopulates from the restored tables.
  void clear() {
    cache_.clear();
    members_.clear();
  }

  std::size_t capacity() const { return static_cast<std::size_t>(cache_size_); }

 private:
  db::Database& db_;
  int cache_size_;
  std::vector<ResultId> cache_;   ///< dispatch order (scheduler scans this)
  std::set<ResultId> members_;    ///< same ids; O(log n) membership
};

}  // namespace vcmr::server