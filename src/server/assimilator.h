#pragma once
// Assimilator: hands validated canonical outputs to the project.
//
// In BOINC the assimilator is the project-specific daemon that consumes a
// work unit's canonical result (e.g. stores it in a science database).
// Here it advances assimilate_state and notifies the JobTracker, which is
// how a MapReduce job learns that a map or reduce work unit is finished.

#include <functional>

#include "db/database.h"

namespace vcmr::server {

class Assimilator {
 public:
  explicit Assimilator(db::Database& db) : db_(db) {}

  /// One daemon pass: assimilates every Ready work unit. Returns how many
  /// it assimilated.
  int pass();

  void set_assimilated_listener(std::function<void(WorkUnitId)> fn) {
    on_assimilated_ = std::move(fn);
  }

 private:
  db::Database& db_;
  std::function<void(WorkUnitId)> on_assimilated_;
};

}  // namespace vcmr::server
