#pragma once
// Fundamental value types shared across VCMR: simulated time, byte counts,
// and strongly-typed identifiers for the entities of a BOINC-style project.

#include <cstdint>
#include <compare>
#include <functional>
#include <limits>
#include <string>

namespace vcmr {

/// Simulated time, stored as integer microseconds since simulation start.
///
/// Integer storage keeps event ordering exact and runs bit-reproducible;
/// helpers convert to and from floating-point seconds at the edges only.
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors. Prefer these over the raw-microsecond one.
  static constexpr SimTime micros(std::int64_t us) { return SimTime{us}; }
  static constexpr SimTime millis(std::int64_t ms) { return SimTime{ms * 1000}; }
  static constexpr SimTime seconds(double s);
  static constexpr SimTime minutes(double m) { return seconds(m * 60.0); }
  static constexpr SimTime hours(double h) { return seconds(h * 3600.0); }
  static constexpr SimTime zero() { return SimTime{0}; }
  /// Largest |s| a time read from outside the program may have (about
  /// 31,700 years). seconds() is undefined for NaN, infinities and |s|
  /// beyond ~9.2e12; the margin leaves room to add such times together.
  static constexpr double kMaxInputSeconds = 1e12;
  /// A sentinel later than any reachable simulation instant.
  static constexpr SimTime infinity() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t as_micros() const { return us_; }
  constexpr double as_seconds() const { return static_cast<double>(us_) / 1e6; }
  constexpr bool is_infinite() const { return *this == infinity(); }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{us_ + o.us_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{us_ - o.us_}; }
  constexpr SimTime& operator+=(SimTime o) { us_ += o.us_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { us_ -= o.us_; return *this; }
  constexpr SimTime operator*(double k) const {
    return seconds(as_seconds() * k);
  }

  /// "123.456s" rendering used by logs and bench output.
  std::string str() const;

 private:
  constexpr explicit SimTime(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

constexpr SimTime SimTime::seconds(double s) {
  // Round to nearest microsecond; good to ~292k simulated years.
  return SimTime{static_cast<std::int64_t>(s * 1e6 + (s >= 0 ? 0.5 : -0.5))};
}

/// Byte counts; plain integer alias plus readable constructors.
using Bytes = std::int64_t;
constexpr Bytes operator""_KiB(unsigned long long v) { return static_cast<Bytes>(v) * 1024; }
constexpr Bytes operator""_MiB(unsigned long long v) { return static_cast<Bytes>(v) * 1024 * 1024; }
constexpr Bytes operator""_GiB(unsigned long long v) { return static_cast<Bytes>(v) * 1024 * 1024 * 1024; }
constexpr Bytes operator""_MB(unsigned long long v) { return static_cast<Bytes>(v) * 1000 * 1000; }
constexpr Bytes operator""_GB(unsigned long long v) { return static_cast<Bytes>(v) * 1000 * 1000 * 1000; }

/// CRTP strong-id wrapper: `struct HostId : Id<HostId> {}` gives a distinct,
/// hashable, comparable integer id that cannot be mixed up with other kinds.
template <class Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::int64_t v) : v_(v) {}

  constexpr std::int64_t value() const { return v_; }
  constexpr bool valid() const { return v_ >= 0; }
  static constexpr Id invalid() { return Id{-1}; }

  friend constexpr auto operator<=>(Id, Id) = default;

 private:
  std::int64_t v_ = -1;
};

struct HostTag;     using HostId = Id<HostTag>;          ///< a volunteer host
struct WuTag;       using WorkUnitId = Id<WuTag>;        ///< a unit of work
struct ResultTag;   using ResultId = Id<ResultTag>;      ///< a WU instance
struct FileTag;     using FileId = Id<FileTag>;          ///< a named data file
struct AppTag;      using AppId = Id<AppTag>;            ///< an application
struct JobTag;      using MrJobId = Id<JobTag>;          ///< a MapReduce job
struct NodeTag;     using NodeId = Id<NodeTag>;          ///< a network node
struct FlowTag;     using FlowId = Id<FlowTag>;          ///< a network flow

}  // namespace vcmr

namespace std {
template <class Tag>
struct hash<vcmr::Id<Tag>> {
  size_t operator()(vcmr::Id<Tag> id) const noexcept {
    return std::hash<std::int64_t>{}(id.value());
  }
};
}  // namespace std
