// Tests for the volunteer behaviour models: populations, NAT mixes and
// byzantine mixes.

#include <gtest/gtest.h>

#include "volunteer/byzantine.h"
#include "volunteer/population.h"

namespace vcmr::volunteer {
namespace {

TEST(Population, EmulabMixAlternatesNodeTypes) {
  const auto specs = emulab_mix(6);
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].type_name, "pc3001");
  EXPECT_EQ(specs[1].type_name, "pcr200");
  EXPECT_EQ(specs[5].type_name, "pcr200");
  // Emulab nodes: symmetric 100 Mbit interfaces (§IV.A).
  for (const auto& s : specs) {
    EXPECT_DOUBLE_EQ(s.up_bps, 100e6 / 8);
    EXPECT_DOUBLE_EQ(s.down_bps, 100e6 / 8);
  }
}

TEST(Population, InternetMixHeterogeneous) {
  common::Rng rng(1);
  const auto specs = internet_mix(50, rng);
  ASSERT_EQ(specs.size(), 50u);
  double min_f = 1e18, max_f = 0;
  for (const auto& s : specs) {
    min_f = std::min(min_f, s.flops);
    max_f = std::max(max_f, s.flops);
    EXPECT_GT(s.up_bps, 0);
    EXPECT_LT(s.up_bps, s.down_bps * 10);  // asymmetric but sane
  }
  EXPECT_GT(max_f / min_f, 1.5);  // genuinely heterogeneous
}

TEST(Population, NatProfilesFollowMix) {
  common::Rng rng(2);
  NatMix mix;
  mix.open = 1.0;
  mix.full_cone = mix.restricted = mix.port_restricted = mix.symmetric = 0.0;
  for (const auto& p : nat_profiles(20, mix, rng)) {
    EXPECT_EQ(p.type, net::NatType::kNone);
  }
  NatMix sym;
  sym.open = sym.full_cone = sym.restricted = sym.port_restricted = 0.0;
  sym.symmetric = 1.0;
  for (const auto& p : nat_profiles(20, sym, rng)) {
    EXPECT_EQ(p.type, net::NatType::kSymmetric);
  }
}

TEST(Population, NatMixProportionsRoughlyHold) {
  common::Rng rng(3);
  const NatMix mix;  // defaults: 20% open
  int open = 0;
  const auto profiles = nat_profiles(4000, mix, rng);
  for (const auto& p : profiles) {
    if (p.type == net::NatType::kNone) ++open;
  }
  EXPECT_NEAR(open / 4000.0, 0.20, 0.03);
}

TEST(Byzantine, FractionSelectsFaultyHosts) {
  common::Rng rng(4);
  ByzantineMix mix;
  mix.faulty_fraction = 0.25;
  mix.error_probability = 0.8;
  const auto probs = error_probabilities(2000, mix, rng);
  int faulty = 0;
  for (const double p : probs) {
    EXPECT_TRUE(p == 0.0 || p == 0.8);
    if (p > 0) ++faulty;
  }
  EXPECT_NEAR(faulty / 2000.0, 0.25, 0.04);
}

TEST(Byzantine, ZeroFractionIsAllHonest) {
  common::Rng rng(5);
  for (const double p : error_probabilities(100, {}, rng)) {
    EXPECT_EQ(p, 0.0);
  }
}

}  // namespace
}  // namespace vcmr::volunteer
