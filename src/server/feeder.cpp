#include "server/feeder.h"

#include <algorithm>

namespace vcmr::server {

int Feeder::refill() {
  // Evict entries whose state changed under us (assigned, aborted, ...).
  const std::size_t before = cache_.size();
  std::erase_if(cache_, [this](ResultId id) {
    if (db_.result(id).server_state == db::ServerState::kUnsent) return false;
    members_.erase(id);
    return true;
  });
  int touched = static_cast<int>(before - cache_.size());

  // Top up from the database's ready queues. The visit order below — audit
  // ids ascending, then bulk interleaved one result per job per round (jobs
  // ascending, ids ascending within a job) — is exactly the order the
  // historical full-table scan produced, so the cache contents are
  // unchanged; only the cost of a pass drops from O(results) to O(cache).
  const auto take = [&](ResultId id) {
    if (cache_.size() >= capacity()) return false;
    if (members_.insert(id).second) {
      cache_.push_back(id);
      ++touched;
    }
    return true;
  };
  // Audit-first: spot-check replicas must not queue behind bulk work, or a
  // trust verdict waits a whole cache drain.
  for (const ResultId id : db_.unsent_audit()) {
    if (!take(id)) break;
  }
  if (cache_.size() < capacity()) {
    // Cross-job fair-share: one result per job per round. One job in the
    // system → one shard → exactly the global id order.
    const auto& by_job = db_.unsent_bulk_by_job();
    std::vector<std::set<ResultId>::const_iterator> cursor, end;
    cursor.reserve(by_job.size());
    end.reserve(by_job.size());
    for (const auto& [job, ids] : by_job) {
      cursor.push_back(ids.begin());
      end.push_back(ids.end());
    }
    bool any = true, room = true;
    while (any && room) {
      any = false;
      for (std::size_t i = 0; i < cursor.size() && room; ++i) {
        if (cursor[i] == end[i]) continue;
        any = true;
        room = take(*cursor[i]++);
      }
    }
  }

  // The scheduler scans the cache in order, so audits also jump the line
  // within it. A stable pass keeps id order otherwise — with no audit work
  // this is a no-op and dispatch order is unchanged.
  std::stable_partition(cache_.begin(), cache_.end(), [this](ResultId id) {
    return db_.workunit(db_.result(id).wu).audit;
  });
  return touched;
}

void Feeder::remove(ResultId id) {
  if (members_.erase(id) == 0) return;
  cache_.erase(std::find(cache_.begin(), cache_.end(), id));
}

}  // namespace vcmr::server
