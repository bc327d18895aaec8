// Tests for SimTime, string utilities, and statistics.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/types.h"

namespace vcmr {
namespace {

using common::Summary;

TEST(SimTime, Constructors) {
  EXPECT_EQ(SimTime::seconds(1.5).as_micros(), 1500000);
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3000);
  EXPECT_EQ(SimTime::minutes(2).as_seconds(), 120.0);
  EXPECT_EQ(SimTime::hours(1).as_seconds(), 3600.0);
  EXPECT_EQ(SimTime::zero().as_micros(), 0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::seconds(10);
  const SimTime b = SimTime::seconds(4);
  EXPECT_EQ((a + b).as_seconds(), 14.0);
  EXPECT_EQ((a - b).as_seconds(), 6.0);
  EXPECT_EQ((a * 0.5).as_seconds(), 5.0);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c.as_seconds(), 14.0);
}

TEST(SimTime, Ordering) {
  EXPECT_LT(SimTime::seconds(1), SimTime::seconds(2));
  EXPECT_LE(SimTime::zero(), SimTime::zero());
  EXPECT_LT(SimTime::hours(10000), SimTime::infinity());
  EXPECT_TRUE(SimTime::infinity().is_infinite());
}

TEST(SimTime, RoundsToNearestMicro) {
  EXPECT_EQ(SimTime::seconds(0.0000005).as_micros(), 1);
  EXPECT_EQ(SimTime::seconds(0.0000004).as_micros(), 0);
}

TEST(Bytes, Literals) {
  using namespace vcmr;
  EXPECT_EQ(1_KiB, 1024);
  EXPECT_EQ(1_MiB, 1024 * 1024);
  EXPECT_EQ(1_GB, 1000000000);
  EXPECT_EQ(50_MB, 50000000);
}

TEST(Ids, StrongTyping) {
  const HostId h{3};
  const HostId h2{3};
  EXPECT_EQ(h, h2);
  EXPECT_TRUE(h.valid());
  EXPECT_FALSE(HostId::invalid().valid());
  EXPECT_LT(HostId{1}, HostId{2});
}

TEST(Strings, Split) {
  const auto parts = common::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitWs) {
  const auto parts = common::split_ws("  one\ttwo \n three  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "two");
}

TEST(Strings, Trim) {
  EXPECT_EQ(common::trim("  x  "), "x");
  EXPECT_EQ(common::trim(""), "");
  EXPECT_EQ(common::trim(" \t\n "), "");
}

TEST(Strings, Affixes) {
  EXPECT_TRUE(common::starts_with("/download/f1", "/download/"));
  EXPECT_FALSE(common::starts_with("/up", "/upload/"));
  EXPECT_TRUE(common::ends_with("file.part0", ".part0"));
  EXPECT_FALSE(common::ends_with("x", "longer"));
}

TEST(Strings, Join) {
  EXPECT_EQ(common::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(common::join({}, ","), "");
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(common::strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(common::strprintf("%.2f", 1.234), "1.23");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(common::format_bytes(512), "512 B");
  EXPECT_EQ(common::format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(common::format_bytes(50000000), "47.7 MiB");
}

TEST(Strings, ParseI64) {
  std::int64_t v = 0;
  EXPECT_TRUE(common::parse_i64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(common::parse_i64(" -17 ", &v));
  EXPECT_EQ(v, -17);
  EXPECT_FALSE(common::parse_i64("12x", &v));
  EXPECT_FALSE(common::parse_i64("", &v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(common::parse_double("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(common::parse_double("1e6", &v));
  EXPECT_DOUBLE_EQ(v, 1e6);
  EXPECT_FALSE(common::parse_double("abc", &v));
}

TEST(Summary, Moments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Logging, CaptureSinkReceivesRecords) {
  using common::LogLevel;
  using common::LogRecord;
  std::vector<LogRecord> captured;
  common::ScopedLogSink sink(
      [&](const LogRecord& rec) { captured.push_back(rec); });
  common::ScopedLogLevel level(LogLevel::kDebug);

  common::Logger log("testcomp");
  log.info("value=", 42, " name=", "x");
  log.warn("warned");

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].component, "testcomp");
  EXPECT_EQ(captured[0].message, "value=42 name=x");
  EXPECT_EQ(captured[0].level, LogLevel::kInfo);
  EXPECT_EQ(captured[1].level, LogLevel::kWarn);
}

TEST(Logging, LevelFiltersRecords) {
  using common::LogLevel;
  int count = 0;
  common::ScopedLogSink sink([&](const common::LogRecord&) { ++count; });
  common::ScopedLogLevel level(LogLevel::kError);
  common::Logger log("c");
  log.debug("no");
  log.info("no");
  log.warn("no");
  log.error("yes");
  EXPECT_EQ(count, 1);
}

TEST(Logging, SimTimeStampsWhenProviderAttached) {
  common::LogRecord last;
  common::ScopedLogSink sink(
      [&](const common::LogRecord& rec) { last = rec; });
  {
    common::ScopedTimeProvider provider([] { return SimTime::seconds(7); });
    common::Logger log("c");
    log.info("x");
    EXPECT_TRUE(last.has_sim_time);
    EXPECT_EQ(last.sim_time, SimTime::seconds(7));
  }
  // The guard restored the previous (absent) provider on scope exit.
  common::Logger log("c");
  log.info("y");
  EXPECT_FALSE(last.has_sim_time);
}

TEST(Logging, ScopedGuardsRestorePreviousState) {
  using common::LogConfig;
  int outer = 0;
  common::ScopedLogSink outer_sink(
      [&](const common::LogRecord&) { ++outer; });
  {
    int inner = 0;
    common::ScopedLogSink inner_sink(
        [&](const common::LogRecord&) { ++inner; });
    common::Logger("c").info("inner only");
    EXPECT_EQ(inner, 1);
    EXPECT_EQ(outer, 0);
  }
  common::Logger("c").info("outer again");
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(LogConfig::instance().level(), common::LogLevel::kInfo);
}

TEST(SimTime, StringRendering) {
  EXPECT_EQ(SimTime::seconds(1.5).str(), "1.500000s");
  EXPECT_EQ(SimTime::infinity().str(), "inf");
}

}  // namespace
}  // namespace vcmr
