#include "obs/export.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/strings.h"

namespace vcmr::obs {

using common::JsonWriter;

namespace {

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ", ";
    first = false;
    out += JsonWriter::quoted(k) + ": " + JsonWriter::quoted(v);
  }
  return out + "}";
}

std::string number(double v) { return common::strprintf("%.6g", v); }

template <class T, class F>
std::string json_array(const std::vector<T>& xs, F&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += render(xs[i]);
  }
  return out + "]";
}

}  // namespace

std::string metrics_json(const MetricsRegistry& registry) {
  std::string counters = "[";
  bool first = true;
  for (const auto& [key, c] : registry.counters()) {
    if (!first) counters += ", ";
    first = false;
    JsonWriter w;
    w.field("component", key.component)
        .field("name", key.name)
        .field_json("labels", labels_json(key.labels))
        .field("value", c.value());
    counters += w.str();
  }
  counters += "]";

  std::string gauges = "[";
  first = true;
  for (const auto& [key, g] : registry.gauges()) {
    if (!first) gauges += ", ";
    first = false;
    JsonWriter w;
    w.field("component", key.component)
        .field("name", key.name)
        .field_json("labels", labels_json(key.labels))
        .field("value", g.value());
    gauges += w.str();
  }
  gauges += "]";

  std::string histograms = "[";
  first = true;
  for (const auto& [key, h] : registry.histograms()) {
    if (!first) histograms += ", ";
    first = false;
    JsonWriter w;
    w.field("component", key.component)
        .field("name", key.name)
        .field_json("labels", labels_json(key.labels))
        .field_json("bounds",
                    json_array(h.bounds(),
                               [](double b) { return number(b); }))
        .field_json("buckets",
                    json_array(h.buckets(),
                               [](std::int64_t n) { return std::to_string(n); }))
        .field("count", h.count())
        .field("sum", h.sum())
        .field_json("p50", number(h.quantile(0.50)))
        .field_json("p95", number(h.quantile(0.95)))
        .field_json("p99", number(h.quantile(0.99)));
    histograms += w.str();
  }
  histograms += "]";

  JsonWriter top;
  top.field_json("counters", counters)
      .field_json("gauges", gauges)
      .field_json("histograms", histograms);
  return top.str();
}

namespace {

/// One rendered trace event plus its sort key; Chrome/Perfetto want the
/// array globally ordered by ts.
struct TraceItem {
  std::int64_t ts;
  std::string json;
};

std::int64_t actor_tid(std::map<std::string, std::int64_t>& tids,
                       std::vector<std::string>& order,
                       const std::string& actor) {
  const auto it = tids.find(actor);
  if (it != tids.end()) return it->second;
  const auto tid = static_cast<std::int64_t>(order.size());
  tids.emplace(actor, tid);
  order.push_back(actor);
  return tid;
}

}  // namespace

std::string chrome_trace_json(const sim::TraceRecorder& trace,
                              const std::vector<CounterSample>& counters) {
  std::map<std::string, std::int64_t> tids;
  std::vector<std::string> order;
  std::vector<TraceItem> items;

  for (const auto& span : trace.spans()) {
    const std::int64_t tid = actor_tid(tids, order, span.actor);
    const std::int64_t ts = span.begin.as_micros();
    JsonWriter w;
    w.field("name", span.label)
        .field("cat", "span")
        .field("ph", "X")
        .field("ts", ts)
        .field("dur", span.end.as_micros() - ts)
        .field("pid", 0)
        .field("tid", tid);
    if (!span.detail.empty())
      w.field_json("args",
                   "{\"detail\": " + JsonWriter::quoted(span.detail) + "}");
    items.push_back({ts, w.str()});
  }

  for (const auto& point : trace.points()) {
    const std::int64_t tid = actor_tid(tids, order, point.actor);
    const std::int64_t ts = point.at.as_micros();
    std::string args =
        "{\"component\": " + JsonWriter::quoted(point.component);
    if (!point.detail.empty())
      args += ", \"detail\": " + JsonWriter::quoted(point.detail);
    JsonWriter w;
    w.field("name", point.label)
        .field("cat", "point")
        .field("ph", "i")
        .field("s", "t")
        .field("ts", ts)
        .field("pid", 0)
        .field("tid", tid)
        .field_json("args", args + "}");
    items.push_back({ts, w.str()});
  }

  // Counter tracks carry no tid: Chrome/Perfetto key "ph":"C" series by
  // (pid, name) and give each its own value track.
  for (const auto& c : counters) {
    const std::int64_t ts = c.at.as_micros();
    JsonWriter w;
    w.field("name", c.name)
        .field("cat", "counter")
        .field("ph", "C")
        .field("ts", ts)
        .field("pid", 0)
        .field_json("args", "{\"value\": " + number(c.value) + "}");
    items.push_back({ts, w.str()});
  }

  std::stable_sort(items.begin(), items.end(),
                   [](const TraceItem& a, const TraceItem& b) {
                     return a.ts < b.ts;
                   });

  std::string out = "{\"traceEvents\": [";
  bool first = true;
  {
    JsonWriter w;
    w.field("name", "process_name")
        .field("ph", "M")
        .field("pid", 0)
        .field_json("args", "{\"name\": \"vcmr\"}");
    out += w.str();
    first = false;
  }
  for (std::size_t tid = 0; tid < order.size(); ++tid) {
    JsonWriter w;
    w.field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 0)
        .field("tid", static_cast<std::int64_t>(tid))
        .field_json("args",
                    "{\"name\": " + JsonWriter::quoted(order[tid]) + "}");
    out += ", " + w.str();
  }
  for (const auto& item : items) {
    if (!first) out += ", ";
    first = false;
    out += item.json;
  }
  out += "], \"displayTimeUnit\": \"ms\"}";
  return out;
}

}  // namespace vcmr::obs
