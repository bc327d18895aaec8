#pragma once
// vcmr::obs — process-wide, test-scopable metrics registry.
//
// Counters, gauges, and fixed-bucket histograms keyed by
// (component, name, label set). This is the queryable half of the telemetry
// layer: the scheduler's RPC and wire-byte accounting, the per-host backoff
// histograms behind the Fig. 4 straggler pathology, daemon pass accounting,
// and fault-injection counts all land here, and the exporters in
// obs/export.h snapshot it.
//
// Instrumentation is always on: bumping an integer makes no RNG draw and
// schedules no event, so golden traces, wire bytes, and bench JSON stay
// bit-identical whether or not anyone ever reads the registry (pinned by
// FaultRegression.* and the test_obs zero-perturbation test). Each touch
// costs one ordered-map lookup; anything heavier — exporters, the event
// bus — is pay-for-what-you-touch.
//
// MetricsRegistry::instance() returns the *current* registry. Tests and
// report binaries that need isolation install a fresh one with
// ScopedMetricsRegistry, which restores the previous registry on scope
// exit. Every core::Cluster holds one as its first member, so a cluster's
// counts land in its own registry (Cluster::metrics()) and never reach the
// enclosing one.
//
// Thread contract (bench::SeedPool): the current-registry pointer is
// thread-local. Every thread starts at the shared process-wide root — the
// main thread's behaviour is exactly the historical single-threaded one —
// and a ScopedMetricsRegistry installs/restores only on the installing
// thread. A scope live on one thread is invisible to every other thread,
// so pool workers that each install their own scope never observe each
// other's counters (pinned by Metrics.RegistryIsolationAcrossThreads).
// The root itself is NOT internally synchronized: threads that bump
// metrics concurrently must each be under their own scoped registry, as
// SeedPool arranges. merge_from() recombines per-worker registries into a
// deterministic aggregate afterwards.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vcmr::obs {

/// Label set, e.g. {{"host", "host3"}}. Normalised (sorted by key) on
/// registration so insertion order never splits a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// extra overflow bucket counts the rest. Bounds are fixed at first
/// registration of the (component, name, labels) key.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::int64_t>& buckets() const { return buckets_; }

  /// Prometheus-style quantile estimate (q in [0,1]): find the bucket where
  /// the cumulative count crosses q*count and interpolate linearly inside
  /// it. Returns 0 with no observations; the overflow bucket clamps to its
  /// lower bound (there is no upper edge to interpolate towards).
  double quantile(double q) const;

  /// Adds another histogram's buckets, count, and sum; the bounds must be
  /// identical (same registration key implies same bounds by contract).
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  double sum_ = 0;
};

struct MetricKey {
  std::string component;
  std::string name;
  Labels labels;

  auto operator<=>(const MetricKey&) const = default;
};

class MetricsRegistry {
 public:
  /// The current registry (the process-wide root unless a
  /// ScopedMetricsRegistry is live).
  static MetricsRegistry& instance();

  Counter& counter(const std::string& component, const std::string& name,
                   Labels labels = {});
  Gauge& gauge(const std::string& component, const std::string& name,
               Labels labels = {});
  /// `bounds` must be strictly increasing; it applies on first registration
  /// only — later calls with the same key return the existing histogram.
  Histogram& histogram(const std::string& component, const std::string& name,
                       std::vector<double> bounds, Labels labels = {});

  // Key-sorted iteration for exporters and tests.
  const std::map<MetricKey, Counter>& counters() const { return counters_; }
  const std::map<MetricKey, Gauge>& gauges() const { return gauges_; }
  const std::map<MetricKey, Histogram>& histograms() const {
    return histograms_;
  }

  /// Sum of one counter family across all label sets (0 if absent).
  std::int64_t counter_total(const std::string& component,
                             const std::string& name) const;
  /// One labelled counter's value (0 if absent); `labels` in any order.
  std::int64_t counter_value(const std::string& component,
                             const std::string& name,
                             Labels labels = {}) const;
  /// Observation count of one histogram family summed over label sets
  /// (0 if absent), e.g. client/backoff_seconds over every host.
  std::int64_t histogram_count(const std::string& component,
                               const std::string& name) const;

  /// Folds `other` into this registry: counters and gauges add; histograms
  /// add bucket-wise (bounds must match — first merge registers them).
  /// Integer aggregates (counter values, histogram counts/buckets) are
  /// order-independent, so merging per-seed registries in seed order
  /// reproduces a serial sweep's totals exactly; histogram sums are
  /// floating-point and associativity-sensitive, so exporters that need
  /// bit-identical sums must reduce in a fixed order (SeedPool merges in
  /// seed order).
  void merge_from(const MetricsRegistry& other);

  void reset();

 private:
  friend class ScopedMetricsRegistry;
  static MetricsRegistry*& current();

  std::map<MetricKey, Counter> counters_;
  std::map<MetricKey, Gauge> gauges_;
  std::map<MetricKey, Histogram> histograms_;
};

/// RAII: a fresh registry for the enclosing scope; instance() resolves to
/// it until destruction, which restores the previous registry. The scope
/// is per-thread: it must be destroyed on the thread that created it, and
/// other threads (including ones spawned inside the scope) keep resolving
/// instance() to their own current registry. Scopes nest LIFO: destroying
/// one that is not current (out of order, or on another thread) aborts the
/// process rather than restore a pointer that would dangle. Nothing is
/// folded into the previous registry on exit.
class ScopedMetricsRegistry {
 public:
  ScopedMetricsRegistry();
  ~ScopedMetricsRegistry();

  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

  MetricsRegistry& registry() { return mine_; }
  const MetricsRegistry& registry() const { return mine_; }
  /// True while this scope is the calling thread's current registry (no
  /// newer scope is live on it).
  bool current() const { return MetricsRegistry::current() == &mine_; }

 private:
  MetricsRegistry mine_;
  MetricsRegistry* prev_;
};

/// Peak resident set size of this process in bytes (getrusage ru_maxrss),
/// for the scale benchmarks' memory-footprint rows. Monotone over the
/// process lifetime; 0 on platforms without getrusage. Thread-safe (one
/// syscall, no shared state) — but because the value is process-wide and
/// monotone, rows measured on a busy pool see the high-water mark of
/// *all* concurrent simulations, not their own.
std::int64_t peak_rss_bytes();

}  // namespace vcmr::obs
