#include <cctype>
#include "sim/trace.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace vcmr::sim {

void TraceRecorder::note_actor(const std::string& actor) {
  if (actor_index_.emplace(actor, actor_order_.size()).second) {
    actor_order_.push_back(actor);
  }
}

void TraceRecorder::point(SimTime at, std::string component,
                          std::string actor, std::string label,
                          std::string detail) {
  note_actor(actor);
  points_.push_back({at, std::move(component), std::move(actor),
                     std::move(label), std::move(detail)});
}

std::size_t TraceRecorder::begin_span(SimTime at, std::string actor,
                                      std::string label, std::string detail) {
  note_actor(actor);
  OpenSpan s;
  s.span = {at, at, std::move(actor), std::move(label), std::move(detail)};
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void TraceRecorder::end_span(std::size_t token, SimTime at) {
  require(token < spans_.size(), "TraceRecorder::end_span: bad token");
  OpenSpan& s = spans_[token];
  require(!s.closed, "TraceRecorder::end_span: span already closed");
  require(at >= s.span.begin, "TraceRecorder::end_span: end before begin");
  s.span.end = at;
  s.closed = true;
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::vector<TraceSpan> out;
  for (const auto& s : spans_)
    if (s.closed) out.push_back(s.span);
  return out;
}

std::vector<TracePoint> TraceRecorder::points_for(const std::string& actor) const {
  std::vector<TracePoint> out;
  for (const auto& p : points_)
    if (p.actor == actor) out.push_back(p);
  return out;
}

std::vector<TraceSpan> TraceRecorder::spans_for(const std::string& actor) const {
  std::vector<TraceSpan> out;
  for (const auto& s : spans_)
    if (s.closed && s.span.actor == actor) out.push_back(s.span);
  return out;
}

std::string TraceRecorder::ascii_gantt(SimTime t0, SimTime t1,
                                       std::size_t width) const {
  require(t1 > t0, "ascii_gantt: empty window");
  const double span_s = (t1 - t0).as_seconds();
  const double per_cell = span_s / static_cast<double>(width);

  auto cell_of = [&](SimTime t) -> std::int64_t {
    return static_cast<std::int64_t>((t - t0).as_seconds() / per_cell);
  };

  std::string out = common::strprintf(
      "timeline %.1fs..%.1fs, %.1fs/cell  (D=download C=compute U=upload "
      "B=backoff S=serve .=idle, '!'=point event)\n",
      t0.as_seconds(), t1.as_seconds(), per_cell);

  for (const auto& actor : actor_order_) {
    std::string row(width, '.');
    for (const auto& s : spans_) {
      if (!s.closed || s.span.actor != actor) continue;
      char mark = '?';
      if (!s.span.label.empty()) {
        mark = static_cast<char>(std::toupper(
            static_cast<unsigned char>(s.span.label[0])));
      }
      const auto lo = std::clamp<std::int64_t>(cell_of(s.span.begin), 0,
                                               static_cast<std::int64_t>(width) - 1);
      const auto hi = std::clamp<std::int64_t>(cell_of(s.span.end), 0,
                                               static_cast<std::int64_t>(width) - 1);
      for (std::int64_t c = lo; c <= hi; ++c)
        row[static_cast<std::size_t>(c)] = mark;
    }
    for (const auto& p : points_) {
      if (p.actor != actor) continue;
      const auto c = std::clamp<std::int64_t>(cell_of(p.at), 0,
                                              static_cast<std::int64_t>(width) - 1);
      row[static_cast<std::size_t>(c)] = '!';
    }
    out += common::strprintf("%-12s |%s|\n", actor.c_str(), row.c_str());
  }
  return out;
}

}  // namespace vcmr::sim
