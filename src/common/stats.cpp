#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace vcmr::common {

void Summary::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double Summary::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

std::string Summary::str() const {
  return strprintf("n=%lld mean=%.3f sd=%.3f min=%.3f max=%.3f",
                   static_cast<long long>(n_), mean(), stddev(), min(), max());
}

}  // namespace vcmr::common
