#pragma once
// Volunteer availability (churn) model.
//
// Volunteer hosts come and go: machines sleep, owners reclaim them, clients
// exit (§III.C worries about "user needing the machine and BOINC exiting").
// The paper's testbed held nodes always-on ("we did not consider node
// failure in our tests"); this model adds the Internet reality the paper
// defers, with alternating exponential on/off sessions per host — the
// standard model fitted to SETI@home traces.

#include <vector>

#include "client/client.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace vcmr::volunteer {

struct ChurnConfig {
  SimTime mean_on = SimTime::hours(8);
  SimTime mean_off = SimTime::hours(1);
  /// Probability a host starts the simulation online.
  double initial_online = 0.95;
};

/// Drives Client::set_online over exponential on/off sessions.
class AvailabilityModel {
 public:
  AvailabilityModel(sim::Simulation& sim, ChurnConfig cfg = {})
      : sim_(sim), cfg_(cfg) {}

  /// Starts churning `client`; `index` keys its RNG stream.
  void attach(client::Client& client, std::uint64_t index);

 private:
  void schedule_next(client::Client& client, common::Rng rng);

  sim::Simulation& sim_;
  ChurnConfig cfg_;
};

}  // namespace vcmr::volunteer
