#include "server/assimilator.h"

#include <vector>

namespace vcmr::server {

int Assimilator::pass() {
  std::vector<WorkUnitId> ready;
  db_.for_each_workunit([&](const db::WorkUnitRecord& wu) {
    if (wu.assimilate_state == db::AssimilateState::kReady) {
      ready.push_back(wu.id);
    }
  });
  for (const WorkUnitId wid : ready) {
    db_.workunit(wid).assimilate_state = db::AssimilateState::kDone;
    if (on_assimilated_) on_assimilated_(wid);
  }
  return static_cast<int>(ready.size());
}

}  // namespace vcmr::server
