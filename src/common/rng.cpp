#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace vcmr::common {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo > hi");
  // Unsigned arithmetic: hi - lo overflows int64 on spans past 2^63.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire rejection-free-ish multiply-shift with rejection for exactness.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto l = static_cast<std::uint64_t>(m);
  if (l < span) {
    const std::uint64_t t = (0 - span) % span;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(m >> 64));
}

double Rng::exponential(double mean) {
  require(mean > 0, "Rng::exponential: mean must be > 0");
  double u = uniform();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double Rng::pareto(double xm, double alpha) {
  require(xm > 0 && alpha > 0, "Rng::pareto: parameters must be > 0");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return xm / std::pow(u, 1.0 / alpha);
}

bool Rng::chance(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform() < p;
}

std::int64_t Rng::zipf(std::int64_t n, double s) {
  require(n >= 1, "Rng::zipf: n must be >= 1");
  require(s > 0 && s != 1.0 ? true : s > 0, "Rng::zipf: s must be > 0");
  if (n == 1) return 1;
  // Rejection-inversion sampling (Hörmann & Derflinger 1996), following the
  // structure of Apache Commons' RejectionInversionZipfSampler.
  const double nd = static_cast<double>(n);
  auto H = [s](double x) {
    // integral of t^-s from 1 to x (shifted so H(1) = 0)
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto H_inv = [s](double u) {
    if (s == 1.0) return std::exp(u);
    return std::pow(1.0 + u * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double h_x1 = H(1.5) - 1.0;  // extends the k = 1 acceptance region
  const double h_n = H(nd + 0.5);
  // x close enough to k is accepted without the integral test; this is what
  // makes k = 1 reachable.
  const double threshold = 2.0 - H_inv(H(2.5) - std::pow(2.0, -s));
  for (;;) {
    const double u = h_n + uniform() * (h_x1 - h_n);
    const double x = H_inv(u);
    auto k = static_cast<std::int64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    const double kd = static_cast<double>(k);
    if (kd - x <= threshold) return k;
    if (u >= H(kd + 0.5) - std::pow(kd, -s)) return k;
  }
}

Rng RngStreamFactory::stream(std::string_view name, std::uint64_t index) const {
  // FNV-1a over the stream name, then mix with the root seed and index via
  // splitmix so streams are pairwise independent.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  std::uint64_t state = root_ ^ h;
  splitmix64(state);
  state ^= index * 0xd1342543de82ef95ULL;
  const std::uint64_t seed = splitmix64(state);
  return Rng(seed);
}

}  // namespace vcmr::common
