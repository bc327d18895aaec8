#pragma once
// Exponential backoff, as BOINC clients apply between scheduler RPCs when
// the server has no work (§IV.B: "To avoid server congestion, BOINC uses
// exponential backoff, which means that for several minutes, a client does
// not attempt to contact the server, not even to report a finished
// computation" — with the paper observing the 600 s cap).

#include "common/error.h"
#include "common/rng.h"
#include "common/types.h"

namespace vcmr::client {

class ExponentialBackoff {
 public:
  /// Jitter draws the delay uniformly from [(1-jitter)·d, d]. Requires
  /// 0 < min_delay <= max_delay and jitter in [0, 1): scenario XML refuses
  /// other bounds at load, and this catches a Scenario built in code.
  ExponentialBackoff(SimTime min_delay, SimTime max_delay, common::Rng rng,
                     double jitter = 0.3)
      : min_(min_delay), max_(max_delay), rng_(rng), jitter_(jitter) {
    require(min_ > SimTime::zero(),
            "ExponentialBackoff: min delay must be > 0");
    require(max_ >= min_, "ExponentialBackoff: max delay must be >= min delay");
    require(jitter_ >= 0 && jitter_ < 1,
            "ExponentialBackoff: jitter must be in [0, 1)");
  }

  /// Next delay; escalates the failure count until the cap is reached.
  SimTime next() {
    double d = min_.as_seconds();
    for (int i = 0; i < failures_ && d < max_.as_seconds(); ++i) d *= 2.0;
    const bool capped = d >= max_.as_seconds();
    d = std::min(d, max_.as_seconds());
    // Once the doubled delay hits the cap, further failures cannot raise
    // it, so stop escalating: the counter stays bounded on multi-day runs
    // instead of growing (and eventually overflowing) once per backoff.
    if (!capped) ++failures_;
    const double jittered = d * rng_.uniform(1.0 - jitter_, 1.0);
    return SimTime::seconds(std::max(jittered, min_.as_seconds() * (1.0 - jitter_)));
  }

  /// Call when the server produced work again.
  void reset() { failures_ = 0; }

  int failures() const { return failures_; }
  SimTime max_delay() const { return max_; }

 private:
  SimTime min_;
  SimTime max_;
  common::Rng rng_;
  double jitter_;
  int failures_ = 0;
};

}  // namespace vcmr::client
