#pragma once
// Job metrics with the paper's exact timing definitions (Table I caption):
//
//   "Reduce and map phase execution is considered to start once the first
//    task is assigned to a client. The end of a phase is signaled by the
//    report or upload of the last output file. Total time is the interval
//    between the scheduling of the first map task and the return of the
//    last reduce output."
//
// Per-phase *task time* is "the average of the time taken for each step
// (interval between receiving task from scheduler to reporting it as
// done)"; the italicised variant discards the slowest node of the
// experiment (§IV.B), which isolates the exponential-backoff straggler.

#include <string>
#include <vector>

#include "common/types.h"
#include "db/database.h"

namespace vcmr::core {

struct PhaseTimes {
  double avg_task_seconds = 0;          ///< mean receive→report interval
  double avg_task_seconds_trimmed = 0;  ///< same, slowest node discarded
  double span_seconds = 0;              ///< first assignment → last report
  double span_seconds_trimmed = 0;      ///< span excluding the slowest node
  int tasks = 0;                        ///< reported successful results
  std::string slowest_host;             ///< who got discarded
};

struct TaskInterval {
  std::string result_name;
  std::string host_name;
  int mr_index = -1;
  double sent_seconds = 0;
  double received_seconds = 0;  ///< reported
  double interval() const { return received_seconds - sent_seconds; }
};

struct JobMetrics {
  PhaseTimes map;
  PhaseTimes reduce;
  double total_seconds = 0;          ///< first map sent → last reduce report
  double total_seconds_trimmed = 0;  ///< phases trimmed, gaps preserved
  /// Idle window between the last map report and the first reduce
  /// assignment (validation + reduce-WU creation + client backoff, §IV.B).
  double map_to_reduce_gap_seconds = 0;
  bool completed = false;
  bool failed = false;

  std::vector<TaskInterval> map_tasks;     ///< per-result detail (Fig. 4)
  std::vector<TaskInterval> reduce_tasks;
};

/// Computes metrics for a finished (or failed/timed-out) job from the
/// project database.
JobMetrics compute_job_metrics(const db::Database& db, MrJobId job);

}  // namespace vcmr::core
