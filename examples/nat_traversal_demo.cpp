// NAT traversal demo: the §III.D tier ladder in action.
//
// Builds an Internet volunteer pool with a realistic NAT mix, runs a
// BOINC-MR job with the tiered connection establisher, and reports which
// tier every inter-client connection used — first with the project server
// as the TURN-style relay of last resort, then with a supernode overlay
// carrying the relay traffic instead.

#include <cstdio>

#include "core/cluster.h"
#include "net/traversal.h"
#include "volunteer/population.h"

int main(int argc, char** argv) {
  using namespace vcmr;
  common::LogConfig::instance().set_level(common::LogLevel::kOff);
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  std::printf("NAT traversal demo: 24 volunteers, typical NAT mix "
              "(20%% open / 65%% cone / 15%% symmetric)\n");

  for (const bool overlay : {false, true}) {
    core::Scenario s;
    s.seed = seed;
    s.n_nodes = 24;
    s.n_maps = 24;
    s.n_reducers = 6;
    s.input_size = 100LL * 1000 * 1000;
    s.boinc_mr = true;
    s.use_traversal = true;
    s.use_overlay = overlay;
    s.time_limit = SimTime::hours(24);

    common::Rng natrng(seed + 17);
    s.nat_profiles = volunteer::nat_profiles(s.n_nodes, {}, natrng);
    common::Rng hostrng(seed + 23);
    s.hosts = volunteer::internet_mix(s.n_nodes, hostrng);

    core::Cluster cluster(s);
    const core::RunOutcome out = cluster.run_job();
    const obs::MetricsRegistry& reg = cluster.metrics();
    const std::int64_t attempts = net::connects(reg);
    const double n = std::max<std::int64_t>(1, attempts);

    std::printf("\n--- relay via %s ---\n",
                overlay ? "supernode overlay" : "project server");
    std::printf("job %s in %.0f s; %lld connection attempts:\n",
                out.metrics.completed ? "completed" : "DID NOT COMPLETE",
                out.metrics.total_seconds,
                static_cast<long long>(attempts));
    std::printf("  direct      %5.1f%%   (target publicly reachable)\n",
                100.0 * net::connects(reg, net::ConnectTier::kDirect) / n);
    std::printf("  reversal    %5.1f%%   (NATed mapper dials back)\n",
                100.0 * net::connects(reg, net::ConnectTier::kReversal) / n);
    std::printf("  hole punch  %5.1f%%   (STUN-style simultaneous open)\n",
                100.0 * net::connects(reg, net::ConnectTier::kHolePunch) / n);
    std::printf("  relayed     %5.1f%%   (TURN-style, last resort)\n",
                100.0 * net::connects(reg, net::ConnectTier::kRelay) / n);
    std::printf("  failed      %5.1f%%\n",
                100.0 * net::connects(reg, net::ConnectTier::kFailed) / n);
    std::printf("server relay traffic: %.1f MB\n",
                cluster.network().traffic(cluster.server_node()).bytes_relayed /
                    1e6);
    if (overlay && cluster.overlay() != nullptr) {
      std::printf("overlay: %zu supernodes among %zu members\n",
                  cluster.overlay()->supernode_count(),
                  cluster.overlay()->member_count());
    }
    std::printf("peer fetches ok %lld, server fallbacks %lld\n",
                static_cast<long long>(
                    reg.counter_value("interclient", "fetch_ok")),
                static_cast<long long>(out.server_fallbacks));
  }
  return 0;
}
