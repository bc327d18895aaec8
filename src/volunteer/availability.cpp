#include "volunteer/availability.h"

namespace vcmr::volunteer {

void AvailabilityModel::attach(client::Client& client, std::uint64_t index) {
  common::Rng rng = sim_.rng_stream("volunteer.churn", index);
  if (!rng.chance(cfg_.initial_online)) client.set_online(false);
  schedule_next(client, rng);
}

void AvailabilityModel::schedule_next(client::Client& client, common::Rng rng) {
  const bool online = client.online();
  const double mean = online ? cfg_.mean_on.as_seconds()
                             : cfg_.mean_off.as_seconds();
  const SimTime dwell = SimTime::seconds(rng.exponential(mean));
  sim_.after(dwell, [this, &client, rng]() mutable {
    client.set_online(!client.online());
    schedule_next(client, rng);
  });
}

}  // namespace vcmr::volunteer
