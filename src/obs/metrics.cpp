#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/error.h"

namespace vcmr::obs {

namespace {
Labels normalized(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}
}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1, 0) {
  require(std::is_sorted(bounds_.begin(), bounds_.end()) &&
              std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
          "Histogram: bounds must be strictly increasing");
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

void Histogram::merge_from(const Histogram& other) {
  require(bounds_ == other.bounds_,
          "Histogram::merge_from: bucket bounds differ");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::quantile(double q) const {
  require(q >= 0 && q <= 1, "Histogram::quantile: q must be in [0,1]");
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds_.size()) {
      // Overflow bucket: no upper edge, clamp to its lower bound.
      return bounds_.empty() ? 0 : bounds_.back();
    }
    const double upper = bounds_[i];
    const double lower = i == 0 ? 0 : bounds_[i - 1];
    const std::int64_t in_bucket = buckets_[i];
    if (in_bucket == 0) return upper;
    const double before = static_cast<double>(cumulative - in_bucket);
    const double frac = (rank - before) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * frac;
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

MetricsRegistry*& MetricsRegistry::current() {
  // One shared root for the whole process, but a per-thread *current*
  // pointer: every thread starts at the root (main-thread behaviour is the
  // historical one), and ScopedMetricsRegistry redirects only its own
  // thread. Pool workers therefore isolate themselves by installing a
  // scope, without any locking on the hot counter path.
  static MetricsRegistry root;
  thread_local MetricsRegistry* cur = &root;
  return cur;
}

MetricsRegistry& MetricsRegistry::instance() { return *current(); }

Counter& MetricsRegistry::counter(const std::string& component,
                                  const std::string& name, Labels labels) {
  return counters_[MetricKey{component, name, normalized(std::move(labels))}];
}

Gauge& MetricsRegistry::gauge(const std::string& component,
                              const std::string& name, Labels labels) {
  return gauges_[MetricKey{component, name, normalized(std::move(labels))}];
}

Histogram& MetricsRegistry::histogram(const std::string& component,
                                      const std::string& name,
                                      std::vector<double> bounds,
                                      Labels labels) {
  MetricKey key{component, name, normalized(std::move(labels))};
  const auto it = histograms_.find(key);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::move(key), Histogram(std::move(bounds)))
      .first->second;
}

std::int64_t MetricsRegistry::counter_total(const std::string& component,
                                            const std::string& name) const {
  std::int64_t total = 0;
  for (const auto& [key, c] : counters_) {
    if (key.component == component && key.name == name) total += c.value();
  }
  return total;
}

std::int64_t MetricsRegistry::counter_value(const std::string& component,
                                            const std::string& name,
                                            Labels labels) const {
  const auto it = counters_.find(
      MetricKey{component, name, normalized(std::move(labels))});
  return it == counters_.end() ? 0 : it->second.value();
}

std::int64_t MetricsRegistry::histogram_count(const std::string& component,
                                              const std::string& name) const {
  std::int64_t total = 0;
  for (const auto& [key, h] : histograms_) {
    if (key.component == component && key.name == name) total += h.count();
  }
  return total;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [key, c] : other.counters_) {
    counters_[key].add(c.value());
  }
  for (const auto& [key, g] : other.gauges_) {
    gauges_[key].add(g.value());
  }
  for (const auto& [key, h] : other.histograms_) {
    const auto it = histograms_.find(key);
    if (it == histograms_.end()) {
      histograms_.emplace(key, h);
      continue;
    }
    it->second.merge_from(h);
  }
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

ScopedMetricsRegistry::ScopedMetricsRegistry()
    : prev_(MetricsRegistry::current()) {
  MetricsRegistry::current() = &mine_;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  // Restoring prev_ out of order would leave the thread pointing at a
  // registry that is (or will be) freed, so this check runs in every build.
  if (!current()) {
    std::fputs(
        "ScopedMetricsRegistry destroyed out of LIFO order or on another "
        "thread\n",
        stderr);
    std::abort();
  }
  MetricsRegistry::current() = prev_;
}

std::int64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace vcmr::obs
