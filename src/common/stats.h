#pragma once
// Online summary statistics for the benchmark harnesses.

#include <cstdint>
#include <string>

namespace vcmr::common {

/// Welford online mean/variance plus min/max/sum.
class Summary {
 public:
  void add(double x);

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1); 0 when n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// "n=.. mean=.. sd=.. min=.. max=.."
  std::string str() const;

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace vcmr::common
