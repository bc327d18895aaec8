#include "core/metrics.h"

#include <algorithm>
#include <map>

namespace vcmr::core {

namespace {

std::vector<TaskInterval> collect_intervals(const db::Database& db, MrJobId job,
                                            db::MrPhase phase) {
  std::vector<TaskInterval> out;
  for (const WorkUnitId wid : db.workunits_of_job(job, phase)) {
    const db::WorkUnitRecord& wu = db.workunit(wid);
    for (const ResultId rid : db.results_of(wid)) {
      const db::ResultRecord& r = db.result(rid);
      if (r.server_state != db::ServerState::kOver) continue;
      if (r.outcome != db::Outcome::kSuccess &&
          r.outcome != db::Outcome::kValidateError) {
        continue;  // never reported
      }
      TaskInterval ti;
      ti.result_name = r.name;
      ti.host_name = r.host.valid() ? db.host(r.host).name : "?";
      ti.mr_index = wu.mr_index;
      ti.sent_seconds = r.sent_time.as_seconds();
      ti.received_seconds = r.received_time.as_seconds();
      out.push_back(std::move(ti));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TaskInterval& a, const TaskInterval& b) {
              if (a.sent_seconds != b.sent_seconds)
                return a.sent_seconds < b.sent_seconds;
              return a.result_name < b.result_name;
            });
  return out;
}

PhaseTimes phase_times(const std::vector<TaskInterval>& tasks,
                       double first_sent) {
  PhaseTimes pt;
  pt.tasks = static_cast<int>(tasks.size());
  if (tasks.empty()) return pt;

  double sum = 0;
  double last_received = 0;
  for (const auto& t : tasks) {
    sum += t.interval();
    last_received = std::max(last_received, t.received_seconds);
  }
  pt.avg_task_seconds = sum / static_cast<double>(tasks.size());
  pt.span_seconds = last_received - first_sent;

  // "Slowest node of the experiment": the host whose last report closes
  // the phase. Discard all of its results and recompute.
  std::map<std::string, double> host_last;
  for (const auto& t : tasks) {
    host_last[t.host_name] = std::max(host_last[t.host_name], t.received_seconds);
  }
  std::string slowest;
  double slowest_time = -1;
  for (const auto& [host, when] : host_last) {
    if (when > slowest_time) {
      slowest_time = when;
      slowest = host;
    }
  }
  pt.slowest_host = slowest;

  double tsum = 0;
  double tlast = 0;
  int tcount = 0;
  for (const auto& t : tasks) {
    if (t.host_name == slowest) continue;
    tsum += t.interval();
    tlast = std::max(tlast, t.received_seconds);
    ++tcount;
  }
  if (tcount > 0) {
    pt.avg_task_seconds_trimmed = tsum / tcount;
    pt.span_seconds_trimmed = tlast - first_sent;
  } else {
    pt.avg_task_seconds_trimmed = pt.avg_task_seconds;
    pt.span_seconds_trimmed = pt.span_seconds;
  }
  return pt;
}

}  // namespace

JobMetrics compute_job_metrics(const db::Database& db, MrJobId job) {
  const db::MrJobRecord& rec = db.mr_job(job);
  JobMetrics m;
  m.completed = rec.state == db::MrJobState::kDone;
  m.failed = rec.state == db::MrJobState::kFailed;

  m.map_tasks = collect_intervals(db, job, db::MrPhase::kMap);
  m.reduce_tasks = collect_intervals(db, job, db::MrPhase::kReduce);

  const double map_first = rec.map_first_sent.is_infinite()
                               ? 0.0
                               : rec.map_first_sent.as_seconds();
  const double reduce_first = rec.reduce_first_sent.is_infinite()
                                  ? 0.0
                                  : rec.reduce_first_sent.as_seconds();
  m.map = phase_times(m.map_tasks, map_first);
  m.reduce = phase_times(m.reduce_tasks, reduce_first);

  double map_last_report = map_first;
  for (const auto& t : m.map_tasks) {
    map_last_report = std::max(map_last_report, t.received_seconds);
  }
  double reduce_last_report = reduce_first;
  for (const auto& t : m.reduce_tasks) {
    reduce_last_report = std::max(reduce_last_report, t.received_seconds);
  }

  if (!m.reduce_tasks.empty()) {
    m.map_to_reduce_gap_seconds = std::max(0.0, reduce_first - map_last_report);
    m.total_seconds = reduce_last_report - map_first;
  } else {
    m.total_seconds = map_last_report - map_first;
  }
  m.total_seconds_trimmed = m.map.span_seconds_trimmed +
                            m.map_to_reduce_gap_seconds +
                            m.reduce.span_seconds_trimmed;
  return m;
}

}  // namespace vcmr::core
