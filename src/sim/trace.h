#pragma once
// Timeline trace recorder.
//
// A run's one timeline: components emit typed spans and point events keyed
// by (actor, label), each point tagged with the subsystem that recorded
// it. The Fig. 4 reproduction renders these as per-node task timelines,
// `vcmr_run --trace-out` exports them, and tests assert ordering
// properties over them. Components reach the recorder through
// Simulation::trace(), which is null unless the run records a trace.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace vcmr::sim {

/// A point event on some actor's timeline.
struct TracePoint {
  SimTime at;
  std::string component;  ///< recording subsystem, e.g. "scheduler"
  std::string actor;      ///< e.g. "host3"
  std::string label;      ///< e.g. "report"
  std::string detail;     ///< free-form, e.g. the result name
};

/// A closed interval on some actor's timeline.
struct TraceSpan {
  SimTime begin;
  SimTime end;
  std::string actor;
  std::string label;   ///< e.g. "compute", "download", "backoff"
  std::string detail;
};

class TraceRecorder {
 public:
  void point(SimTime at, std::string component, std::string actor,
             std::string label, std::string detail = "");

  /// Opens a span; returns a token to close it with.
  std::size_t begin_span(SimTime at, std::string actor, std::string label,
                         std::string detail = "");
  void end_span(std::size_t token, SimTime at);

  const std::vector<TracePoint>& points() const { return points_; }
  /// Closed spans only; spans never closed are dropped from this view.
  std::vector<TraceSpan> spans() const;

  std::vector<TracePoint> points_for(const std::string& actor) const;
  std::vector<TraceSpan> spans_for(const std::string& actor) const;

  /// Gantt-style ASCII rendering, one row per actor, for report binaries.
  /// `t0`/`t1` bound the rendered window; seconds per character cell is
  /// derived from `width`.
  std::string ascii_gantt(SimTime t0, SimTime t1, std::size_t width = 100) const;

 private:
  struct OpenSpan {
    TraceSpan span;
    bool closed = false;
  };
  std::vector<TracePoint> points_;
  std::vector<OpenSpan> spans_;
  std::vector<std::string> actor_order_;
  std::map<std::string, std::size_t> actor_index_;
  void note_actor(const std::string& actor);
};

}  // namespace vcmr::sim
