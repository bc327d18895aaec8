#pragma once
// JobTracker: the BOINC-MR server module (§III.B).
//
// "JobTracker, a new module on the server, provides information on map or
// reduce tasks to be given to the client." It owns the MapReduce job
// lifecycle on the server side: staging map inputs and work units at
// submission, recording which host holds which validated map output,
// creating reduce work units once the map phase validates (or eagerly in
// pipelined mode, mitigation E5), and answering the scheduler's location
// queries so reduce results carry mapper addresses.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "proto/messages.h"
#include "server/config.h"
#include "sim/simulation.h"
#include "store/store.h"

namespace vcmr::server {

struct MrJobSpec {
  std::string name;
  std::string app = "word_count";
  int n_maps = 0;      ///< 0 → JobTracker::kDefaultMaps
  int n_reducers = 0;  ///< 0 → JobTracker::kDefaultReducers
  /// Modelled mode: total input bytes (the paper's fixed 1 GB file).
  Bytes input_size = 0;
  /// Materialised mode: real corpus text (overrides input_size).
  std::optional<std::string> input_text;
  /// Parameter-sweep mode (§II's ClimatePrediction/MilkyWay shape): every
  /// map work unit reads the SAME input file instead of its own chunk —
  /// the workload where shared-input distribution (E15) matters.
  bool shared_input = false;
};

class JobTracker {
 public:
  /// Map / reduce task counts of a job whose spec leaves them at 0.
  static constexpr int kDefaultMaps = 20;
  static constexpr int kDefaultReducers = 5;

  JobTracker(sim::Simulation& sim, db::Database& db, store::StorageTier& data,
             const ProjectConfig& cfg);

  /// Stages inputs and creates the map work units. Throws on unknown app.
  MrJobId submit(const MrJobSpec& spec);

  // --- hooks wired by Project ------------------------------------------------
  void wu_validated(WorkUnitId wu);
  void wu_assimilated(WorkUnitId wu);
  void wu_errored(WorkUnitId wu);

  /// What a reported peer-fetch failure led to.
  enum class FetchFailureAction {
    kStale,        ///< unknown job / holder no longer registered / job over
    kMirrored,     ///< outputs mirrored on the server; fallback covers it
    kInvalidated,  ///< holder's locations dropped, map flagged to re-run
  };
  /// Fast lost-work recovery: a reducer exhausted its fetch attempts
  /// against `holder` for map `map_index`. Unless the outputs are server-
  /// mirrored, drops the holder's registered locations, voids the stale
  /// validated results (their outputs are unreachable), and flags the map
  /// work unit so the transitioner re-runs it ahead of any deadline.
  FetchFailureAction note_fetch_failure(MrJobId job, int map_index,
                                        HostId holder);

  // --- scheduler queries -------------------------------------------------------
  /// Validated map outputs feeding reduce partition `r`, map-index order.
  std::vector<proto::PeerLocation> locations_for(MrJobId job, int r) const;
  /// True once every map work unit of the job has validated.
  bool locations_complete(MrJobId job) const;
  /// Records first map/reduce assignment instants (phase timing).
  void note_assignment(MrJobId job, db::MrPhase phase, SimTime now);
  /// True while any unfinished job still needs map outputs this host holds
  /// (§III.C serve-timeout reset).
  bool host_outputs_needed(HostId host) const;

  // --- job status -----------------------------------------------------------------
  bool job_done(MrJobId job) const;
  bool job_failed(MrJobId job) const;
  const db::MrJobRecord& job(MrJobId job) const { return db_.mr_job(job); }
  /// Names of the canonical reduce output files (on the data server).
  std::vector<std::string> output_file_names(MrJobId job) const;

  void set_job_finished_listener(std::function<void(MrJobId)> fn) {
    on_finished_ = std::move(fn);
  }

  // --- canonical file naming (shared with clients) -----------------------------------
  static std::string map_input_name(const std::string& job, int map_index);
  static std::string map_output_name(const std::string& result_name,
                                     int partition);
  static std::string reduce_output_name(const std::string& result_name);

 private:
  /// Creates the reduce work units once, costed from the job's recorded
  /// input size and its app's cost model.
  void create_reduce_wus(db::MrJobRecord& job);
  /// Writes map `index` / reduce partition `index` of `job` into the
  /// database (`<job>_map_<i>` / `<job>_reduce_<r>`) with the project's
  /// initial replication, deadline and error limits.
  void create_wu(const db::MrJobRecord& job, db::MrPhase phase, int index,
                 double flops_est, std::vector<FileId> inputs);

  sim::Simulation& sim_;
  db::Database& db_;
  store::StorageTier& data_;
  const ProjectConfig& cfg_;
  std::function<void(MrJobId)> on_finished_;
};

}  // namespace vcmr::server
