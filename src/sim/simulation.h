#pragma once
// The discrete-event simulation kernel: a virtual clock plus the event
// queue, with convenience scheduling in relative time and run-loop control.
//
// All VCMR subsystems (network, server daemons, clients, churn models) hang
// off one Simulation instance and advance exclusively through its events;
// nothing reads wall-clock time, so runs are bit-reproducible.

#include <functional>

#include "common/logging.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace vcmr::sim {

class TraceRecorder;

class Simulation {
 public:
  /// root_seed drives every RNG stream in the simulation.
  explicit Simulation(std::uint64_t root_seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedule at an absolute simulated time (must be >= now).
  EventHandle at(SimTime when, EventFn fn);
  /// Schedule after a relative delay (must be >= 0).
  EventHandle after(SimTime delay, EventFn fn);
  void cancel(EventHandle h) { queue_.cancel(h); }
  /// Moves a pending event to absolute time `when` (must be >= now),
  /// keeping its callback; see EventQueue::reschedule.
  EventHandle reschedule(EventHandle h, SimTime when);

  /// Runs until the queue drains or `until` is reached, whichever is first.
  /// Returns the final clock value.
  SimTime run(SimTime until = SimTime::infinity());

  /// Runs until pred() returns true (checked after every event) or the
  /// queue drains. Returns true if the predicate fired.
  bool run_until(const std::function<bool()>& pred,
                 SimTime deadline = SimTime::infinity());

  /// Stops the current run() after the in-flight event completes.
  void stop() { stop_requested_ = true; }

  std::size_t events_executed() const { return events_executed_; }
  bool idle() const { return queue_.empty(); }

  /// The run's timeline, or null when the run records none. Components
  /// record through it and build detail strings only when it is set.
  TraceRecorder* trace() const { return trace_; }
  /// Attaches the run's recorder, owned by the caller, which must outlive
  /// every component that records into it.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  common::Rng rng_stream(std::string_view name, std::uint64_t index = 0) const {
    return rng_.stream(name, index);
  }

 private:
  SimTime now_;
  EventQueue queue_;
  common::RngStreamFactory rng_;
  TraceRecorder* trace_ = nullptr;
  bool stop_requested_ = false;
  std::size_t events_executed_ = 0;
};

/// Re-arming periodic event: fires `fn` every `period` of simulated time,
/// starting one period after construction, until cancelled or destroyed.
/// Used by instrumentation (obs::MetricsStreamer) that needs a sampling
/// tick on the virtual clock; each firing counts as one executed event.
class PeriodicTask {
 public:
  PeriodicTask(Simulation& sim, SimTime period, std::function<void()> fn);
  ~PeriodicTask() { cancel(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops future firings; the in-flight callback (if any) completes.
  void cancel();

  SimTime period() const { return period_; }
  std::int64_t fired() const { return fired_; }

 private:
  void arm();

  Simulation& sim_;
  SimTime period_;
  std::function<void()> fn_;
  EventHandle pending_;
  std::int64_t fired_ = 0;
  bool cancelled_ = false;
};

}  // namespace vcmr::sim
