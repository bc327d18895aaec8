// E8 — NAT traversal tiers (§III.D future work, implemented).
//
// Internet volunteers sit behind NATs; the paper's tiered plan is
// direct → connection reversal → hole punching → relay. We sweep NAT-type
// mixes and report (a) which tier each inter-client connection used,
// (b) the relay fraction (traffic that still burdens a third party), and
// (c) job makespan — with the relay being either the project server or a
// supernode overlay (which keeps relay bytes off the server).

#include "bench_util.h"
#include "volunteer/population.h"

namespace vcmr {
namespace {

void run(int n_seeds) {
  std::printf(
      "E8 — NAT TRAVERSAL TIERS (20 broadband nodes, 20 maps, 5 reducers, "
      "250 MB, %d seeds)\n\n",
      n_seeds);
  std::printf("%-28s %-9s | %7s %8s %7s %7s %7s | %-10s | %9s\n", "NAT mix",
              "relay via", "direct", "reversal", "punch", "relay", "fail",
              "Total (s)", "SrvRelay");
  std::printf("%s\n", std::string(110, '=').c_str());

  struct MixRow {
    const char* name;
    volunteer::NatMix mix;
  };
  std::vector<MixRow> mixes;
  {
    volunteer::NatMix open;
    open.open = 1.0;
    open.full_cone = open.restricted = open.port_restricted = open.symmetric = 0;
    mixes.push_back({"all open (paper's deploy)", open});
    mixes.push_back({"typical Internet", volunteer::NatMix{}});
    volunteer::NatMix hostile;
    hostile.open = 0.05;
    hostile.full_cone = 0.10;
    hostile.restricted = 0.10;
    hostile.port_restricted = 0.35;
    hostile.symmetric = 0.40;
    mixes.push_back({"hostile (40% symmetric)", hostile});
  }

  for (const MixRow& m : mixes) {
    for (const bool overlay : {false, true}) {
      obs::MetricsRegistry agg;  ///< every seed's cluster registry, merged
      double total = 0;
      double relay_mb = 0;
      int ok = 0;
      for (int i = 0; i < n_seeds; ++i) {
        core::Scenario s;
        s.seed = 40 + static_cast<std::uint64_t>(i);
        s.n_nodes = 20;
        s.n_maps = 20;
        s.n_reducers = 5;
        s.input_size = 250LL * 1000 * 1000;
        s.boinc_mr = true;
        s.use_traversal = true;
        s.use_overlay = overlay;
        common::Rng rng(s.seed);
        s.nat_profiles = volunteer::nat_profiles(s.n_nodes, m.mix, rng);
        common::Rng hostrng(s.seed + 1);
        s.hosts = volunteer::internet_mix(s.n_nodes, hostrng);
        // Broadband uplinks are slow; give transfers room.
        s.time_limit = SimTime::hours(24);
        core::Cluster cluster(s);
        const core::RunOutcome out = cluster.run_job();
        agg.merge_from(cluster.metrics());
        if (out.metrics.completed) {
          ++ok;
          total += out.metrics.total_seconds;
          relay_mb += static_cast<double>(
                          cluster.network().traffic(cluster.server_node())
                              .bytes_relayed) /
                      1e6;
        }
      }
      const double n = std::max<double>(1, net::connects(agg));
      std::printf("%-28s %-9s | %6.1f%% %7.1f%% %6.1f%% %6.1f%% %6.1f%% | "
                  "%-10.0f | %6.0f MB\n",
                  m.name, overlay ? "supernode" : "server",
                  100.0 * net::connects(agg, net::ConnectTier::kDirect) / n,
                  100.0 * net::connects(agg, net::ConnectTier::kReversal) / n,
                  100.0 * net::connects(agg, net::ConnectTier::kHolePunch) / n,
                  100.0 * net::connects(agg, net::ConnectTier::kRelay) / n,
                  100.0 * net::connects(agg, net::ConnectTier::kFailed) / n,
                  ok ? total / ok : 0, ok ? relay_mb / ok : 0);
    }
  }
  std::printf(
      "\nExpected shape: the open mix is all-direct (what the prototype\n"
      "shipped with); realistic mixes shift connections down the ladder, and\n"
      "symmetric-heavy mixes lean on relays — which the supernode overlay\n"
      "takes off the project server (SrvRelay -> 0).\n");
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  vcmr::run(argc > 1 ? std::atoi(argv[1]) : 3);
  return 0;
}
