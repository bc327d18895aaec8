#pragma once
// vcmr::obs — exporters.
//
// Two render targets for a finished run's telemetry:
//
//  * metrics_json: the full MetricsRegistry as one JSON object with
//    "counters" / "gauges" / "histograms" arrays — the machine-readable
//    run summary behind `vcmr_run --metrics-json`.
//
//  * chrome_trace_json: the run's one timeline — the sim TraceRecorder's
//    spans and points — in Chrome trace-event ("Trace Event Format") JSON;
//    load into chrome://tracing or Perfetto. One track (tid) per actor in
//    first-seen order; closed spans become "ph":"X" complete events
//    (ts/dur in microseconds), points become "ph":"i" instants whose args
//    carry the recording component, and MetricsStreamer counter samples
//    become "ph":"C" counter tracks (one per sample name) so Perfetto
//    plots wire bytes, queue depths, and in-flight results over simulated
//    time.
//
// Both return strings; callers own file I/O.

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stream.h"
#include "sim/trace.h"

namespace vcmr::obs {

std::string metrics_json(const MetricsRegistry& registry);

std::string chrome_trace_json(const sim::TraceRecorder& trace,
                              const std::vector<CounterSample>& counters = {});

}  // namespace vcmr::obs
