#include "sim/simulation.h"

#include "common/error.h"

namespace vcmr::sim {

Simulation::Simulation(std::uint64_t root_seed) : rng_(root_seed) {
  common::LogConfig::instance().set_time_provider([this] { return now_; });
}

Simulation::~Simulation() {
  common::LogConfig::instance().clear_time_provider();
}

EventHandle Simulation::at(SimTime when, EventFn fn) {
  require(when >= now_, "Simulation::at: cannot schedule in the past");
  return queue_.schedule(when, std::move(fn));
}

EventHandle Simulation::after(SimTime delay, EventFn fn) {
  require(delay >= SimTime::zero(), "Simulation::after: negative delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventHandle Simulation::reschedule(EventHandle h, SimTime when) {
  require(when >= now_, "Simulation::reschedule: cannot move into the past");
  return queue_.reschedule(h, when);
}

SimTime Simulation::run(SimTime until) {
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    const SimTime t = queue_.next_time();
    if (t > until) {
      now_ = until;
      return now_;
    }
    // Advance the clock BEFORE dispatching: callbacks observe now() == their
    // own firing time and may schedule relative to it.
    now_ = t;
    queue_.pop_and_run();
    ++events_executed_;
  }
  if (queue_.empty() && until != SimTime::infinity() && now_ < until) {
    now_ = until;
  }
  return now_;
}

bool Simulation::run_until(const std::function<bool()>& pred, SimTime deadline) {
  stop_requested_ = false;
  if (pred()) return true;
  while (!queue_.empty() && !stop_requested_) {
    const SimTime t = queue_.next_time();
    if (t > deadline) {
      now_ = deadline;
      return pred();
    }
    now_ = t;
    queue_.pop_and_run();
    ++events_executed_;
    if (pred()) return true;
  }
  return pred();
}

PeriodicTask::PeriodicTask(Simulation& sim, SimTime period,
                           std::function<void()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  require(period_ > SimTime::zero(), "PeriodicTask: period must be positive");
  arm();
}

void PeriodicTask::cancel() {
  if (cancelled_) return;
  cancelled_ = true;
  if (pending_.valid()) sim_.cancel(pending_);
}

void PeriodicTask::arm() {
  pending_ = sim_.after(period_, [this] {
    ++fired_;
    fn_();
    // fn_ may cancel() us; only then skip re-arming.
    if (!cancelled_) arm();
  });
}

}  // namespace vcmr::sim
