#pragma once
// In-memory project database with the query surface the daemons need.
//
// BOINC runs its daemons against MySQL; here the whole project lives in
// one process, so the database is a set of ordered tables with typed
// accessors and the handful of secondary lookups the scheduler, feeder,
// transitioner, validator, and JobTracker perform. Ordered containers keep
// iteration deterministic. A text snapshot (save/load) stands in for
// persistence.

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "db/schema.h"

namespace vcmr::db {

class Database {
 public:
  // --- creation -----------------------------------------------------------
  AppRecord& create_app(const std::string& name);
  HostRecord& create_host(const HostRecord& proto);
  FileRecord& create_file(const FileRecord& proto);
  WorkUnitRecord& create_workunit(const WorkUnitRecord& proto);
  ResultRecord& create_result(const ResultRecord& proto);
  MrJobRecord& create_mr_job(const MrJobRecord& proto);

  // --- typed lookup (throws on unknown id) ---------------------------------
  AppRecord& app(AppId id);
  HostRecord& host(HostId id);
  FileRecord& file(FileId id);
  WorkUnitRecord& workunit(WorkUnitId id);
  ResultRecord& result(ResultId id);
  MrJobRecord& mr_job(MrJobId id);
  const AppRecord& app(AppId id) const;
  const HostRecord& host(HostId id) const;
  const FileRecord& file(FileId id) const;
  const WorkUnitRecord& workunit(WorkUnitId id) const;
  const ResultRecord& result(ResultId id) const;
  const MrJobRecord& mr_job(MrJobId id) const;

  std::optional<FileId> find_file_by_name(const std::string& name) const;
  std::optional<WorkUnitId> find_workunit_by_name(const std::string& name) const;

  // --- state transitions (index-maintaining) -------------------------------
  /// Change a result's server_state. This is the only supported way to move
  /// a result in or out of kUnsent: it keeps the feeder's ready queues
  /// (unsent_audit / unsent_bulk_by_job) in sync, replacing
  /// the full-table scan the feeder used to do per pass. No-op if the state
  /// is unchanged.
  void set_server_state(ResultId id, ServerState s);
  /// Flip a workunit's audit flag, reclassifying its still-unsent results
  /// between the audit-first and bulk ready queues (the scheduler marks
  /// spot-check WUs audit after their replicas were created).
  void set_workunit_audit(WorkUnitId id, bool audit);

  // --- queries used by the daemons -----------------------------------------
  /// Results of a workunit, id order.
  std::vector<ResultId> results_of(WorkUnitId wu) const;
  /// Feeder ready queues: unsent results of audit-flagged workunits, id
  /// order; and the other unsent results sharded by job, id order within a
  /// job (the feeder's fair-share round-robin walks one shard per round).
  const std::set<ResultId>& unsent_audit() const { return unsent_audit_; }
  const std::map<MrJobId, std::set<ResultId>>& unsent_bulk_by_job() const {
    return unsent_bulk_by_job_;
  }
  /// In-progress results whose report deadline has passed at `now`.
  std::vector<ResultId> timed_out_results(SimTime now) const;
  /// Workunits flagged for transitioner attention.
  std::vector<WorkUnitId> transition_pending() const;
  void flag_transition(WorkUnitId wu);
  void clear_transition(WorkUnitId wu);
  /// Workunits of a MapReduce job in a given phase.
  std::vector<WorkUnitId> workunits_of_job(MrJobId job, MrPhase phase) const;
  /// In-progress results currently assigned to a host.
  std::vector<ResultId> in_progress_on_host(HostId host) const;

  // --- iteration (deterministic order) -------------------------------------
  void for_each_workunit(const std::function<void(const WorkUnitRecord&)>& fn) const;
  void for_each_result(const std::function<void(const ResultRecord&)>& fn) const;
  void for_each_host(const std::function<void(const HostRecord&)>& fn) const;
  void for_each_mr_job(const std::function<void(const MrJobRecord&)>& fn) const;

  std::size_t workunit_count() const { return workunits_.size(); }
  std::size_t result_count() const { return results_.size(); }
  std::size_t host_count() const { return hosts_.size(); }
  std::size_t file_count() const { return files_.size(); }

  // --- persistence ----------------------------------------------------------
  /// Text snapshot of all tables; `load` reconstructs an equivalent database.
  std::string save() const;
  static Database load(const std::string& snapshot);
  /// Crash recovery: replace this database's contents with the snapshot,
  /// but keep the id counters at least as high as they are now — the
  /// autoincrement state survives a rollback (as MySQL's would on disk), so
  /// results assigned after the snapshot are never re-minted under the same
  /// id while clients still hold the originals.
  void restore_from(const std::string& snapshot);

 private:
  void index_unsent(const ResultRecord& r);
  void unindex_unsent(const ResultRecord& r);

  std::map<AppId, AppRecord> apps_;
  std::map<HostId, HostRecord> hosts_;
  std::map<FileId, FileRecord> files_;
  std::map<WorkUnitId, WorkUnitRecord> workunits_;
  std::map<ResultId, ResultRecord> results_;
  std::map<MrJobId, MrJobRecord> mr_jobs_;
  std::map<std::string, FileId> file_by_name_;
  std::map<std::string, WorkUnitId> wu_by_name_;
  std::map<WorkUnitId, std::vector<ResultId>> results_by_wu_;
  std::map<WorkUnitId, bool> transition_flag_;
  /// Feeder ready queues, maintained at create_result / set_server_state /
  /// set_workunit_audit time so no daemon pass ever rescans the result
  /// table for unsent work.
  std::set<ResultId> unsent_audit_;
  std::map<MrJobId, std::set<ResultId>> unsent_bulk_by_job_;

  std::int64_t next_app_ = 1;
  std::int64_t next_host_ = 1;
  std::int64_t next_file_ = 1;
  std::int64_t next_wu_ = 1;
  std::int64_t next_result_ = 1;
  std::int64_t next_job_ = 1;
};

}  // namespace vcmr::db
