// Tests for the discrete-event engine: queue ordering, cancellation,
// run-loop control, and the trace recorder.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace vcmr::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::seconds(3), [&] { order.push_back(3); });
  q.schedule(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventHandle h = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  q.cancel(h);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime::seconds(1), [] {});
  q.cancel(h);
  q.cancel(h);               // second cancel is a no-op
  q.cancel(EventHandle{});   // inert handle is a no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime::seconds(1), [] {});
  q.schedule(SimTime::seconds(2), [] {});
  q.cancel(h);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop_and_run(), Error);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.schedule(SimTime::seconds(count), chain);
    }
  };
  q.schedule(SimTime::zero(), chain);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, CancelReleasesCallbackAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  const EventHandle h = q.schedule(SimTime::seconds(5), [token] {});
  q.schedule(SimTime::seconds(9), [] {});
  EXPECT_EQ(token.use_count(), 2);
  q.cancel(h);
  EXPECT_EQ(token.use_count(), 1);  // no dead entry keeps it alive
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(9));
}

TEST(EventQueue, StaleHandleCannotCancelSlotReuser) {
  EventQueue q;
  std::vector<char> fired;
  const EventHandle a = q.schedule(SimTime::seconds(1), [&] { fired.push_back('a'); });
  q.cancel(a);
  // b takes the slot a freed; a's handle must stay inert.
  const EventHandle b = q.schedule(SimTime::seconds(2), [&] { fired.push_back('b'); });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  // c takes the slot b freed by firing; neither older handle reaches it.
  q.schedule(SimTime::seconds(3), [&] { fired.push_back('c'); });
  q.cancel(b);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(fired, (std::vector<char>{'b', 'c'}));
}

// Differential test: random schedule/cancel/pop sequences against a
// reference that orders pending events by (time, insertion order). Times
// come from a handful of values so most events tie; callbacks schedule,
// cancel other events (pending or not), and cancel themselves; the driver
// also cancels events long after they fired or were cancelled, so stale
// handles keep meeting slots that have since been reused.
TEST(EventQueue, MatchesReferenceOrderUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    common::Rng rng(seed);
    EventQueue q;
    // Labels are issued in insertion order, so (time, label) is the
    // reference order.
    std::map<std::pair<SimTime, int>, int> ref;
    std::vector<EventHandle> handle;  // by label
    std::vector<SimTime> when;        // by label
    std::vector<int> fired, expected;
    SimTime now = SimTime::zero();

    std::function<void()> schedule_one;
    const auto cancel_any = [&] {
      if (handle.empty()) return;
      const auto l = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handle.size()) - 1));
      q.cancel(handle[l]);
      ref.erase({when[l], static_cast<int>(l)});
    };
    schedule_one = [&] {
      const int label = static_cast<int>(handle.size());
      const SimTime at = now + SimTime::seconds(
                                   static_cast<double>(rng.uniform_int(0, 3)));
      when.push_back(at);
      ref.emplace(std::make_pair(at, label), label);
      handle.push_back(q.schedule(at, [&, label] {
        fired.push_back(label);
        switch (rng.uniform_int(0, 4)) {
          case 0: schedule_one(); break;
          case 1: cancel_any(); break;
          case 2: q.cancel(handle[static_cast<std::size_t>(label)]); break;
          default: break;
        }
      }));
    };

    for (int op = 0; op < 400; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 4) {
        schedule_one();
      } else if (kind < 6) {
        cancel_any();
      } else if (!ref.empty()) {
        const auto next = ref.begin();
        const SimTime at = next->first.first;
        expected.push_back(next->second);
        ref.erase(next);  // before the callback, which may cancel others
        EXPECT_EQ(q.next_time(), at);
        now = at;
        EXPECT_EQ(q.pop_and_run(), at);
      }
      ASSERT_EQ(q.size(), ref.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(q.empty(), ref.empty());
      ASSERT_EQ(q.next_time(),
                ref.empty() ? SimTime::infinity() : ref.begin()->first.first);
    }
    while (!ref.empty()) {
      expected.push_back(ref.begin()->second);
      now = ref.begin()->first.first;
      ref.erase(ref.begin());
      q.pop_and_run();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, expected) << "seed " << seed;
  }
}

TEST(EventQueue, RescheduleMovesEventAndKeepsCallback) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  std::vector<char> fired;
  const EventHandle a =
      q.schedule(SimTime::seconds(1), [&, token] { fired.push_back('a'); });
  q.schedule(SimTime::seconds(2), [&] { fired.push_back('b'); });
  const EventHandle moved = q.reschedule(a, SimTime::seconds(3));
  EXPECT_EQ(token.use_count(), 2);  // the same callback, not a rebuilt one
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
  q.cancel(a);  // the old handle no longer names the event
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, (std::vector<char>{'b', 'a'}));
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_THROW(q.reschedule(moved, SimTime::seconds(4)), Error);
}

TEST(EventQueue, RescheduleRejectsFiredOrCancelled) {
  EventQueue q;
  const EventHandle fired = q.schedule(SimTime::seconds(1), [] {});
  const EventHandle cancelled = q.schedule(SimTime::seconds(2), [] {});
  q.pop_and_run();
  q.cancel(cancelled);
  EXPECT_THROW(q.reschedule(fired, SimTime::seconds(5)), Error);
  EXPECT_THROW(q.reschedule(cancelled, SimTime::seconds(5)), Error);
  EXPECT_THROW(q.reschedule(EventHandle{}, SimTime::seconds(5)), Error);
  // A stale handle must not move the slot's next occupant.
  q.schedule(SimTime::seconds(3), [] {});
  EXPECT_THROW(q.reschedule(cancelled, SimTime::seconds(5)), Error);
  EXPECT_EQ(q.next_time(), SimTime::seconds(3));
}

// Twin queues for the differential tests below: one moves events with
// reschedule(); its twin cancels them and schedules the same callback anew.
// Both must hand out the same handles (slot, seq) and fire the same
// (time, label, handle) sequence.
struct Fired {
  SimTime at;
  int label = -1;
  EventHandle handle;
  bool operator==(const Fired&) const = default;
};
struct Twin {
  Twin() = default;
  Twin(const Twin&) = delete;  // callbacks hold `this`
  Twin& operator=(const Twin&) = delete;

  EventQueue q;
  std::vector<EventHandle> handle;  // by label
  std::vector<Fired> fired;
  int last = -1;
  EventFn callback(int label) {
    return [this, label] { last = label; };
  }
  void pop() {
    const SimTime at = q.pop_and_run();
    fired.push_back({at, last, handle[static_cast<std::size_t>(last)]});
  }
};

// Random schedule/cancel/reschedule/pop scripts, asking next_time() after
// every step.
TEST(EventQueue, RescheduleMatchesCancelThenSchedule) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    common::Rng rng(seed);
    Twin moved, rebuilt;
    std::vector<int> pending;  // labels
    SimTime now = SimTime::zero();
    const auto later = [&] {
      return now + SimTime::seconds(static_cast<double>(rng.uniform_int(0, 3)));
    };
    const auto pick_pending = [&]() -> std::size_t {
      return static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pending.size()) - 1));
    };

    for (int op = 0; op < 400; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 3 || pending.empty()) {
        const int label = static_cast<int>(moved.handle.size());
        const SimTime at = later();
        moved.handle.push_back(moved.q.schedule(at, moved.callback(label)));
        rebuilt.handle.push_back(
            rebuilt.q.schedule(at, rebuilt.callback(label)));
        pending.push_back(label);
      } else if (kind < 4) {
        const std::size_t i = pick_pending();
        const auto l = static_cast<std::size_t>(pending[i]);
        moved.q.cancel(moved.handle[l]);
        rebuilt.q.cancel(rebuilt.handle[l]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (kind < 7) {
        const auto l = static_cast<std::size_t>(pending[pick_pending()]);
        const SimTime at = later();
        moved.handle[l] = moved.q.reschedule(moved.handle[l], at);
        rebuilt.q.cancel(rebuilt.handle[l]);
        rebuilt.handle[l] =
            rebuilt.q.schedule(at, rebuilt.callback(static_cast<int>(l)));
      } else {
        moved.pop();
        rebuilt.pop();
        now = moved.fired.back().at;
        pending.erase(std::find(pending.begin(), pending.end(),
                                moved.fired.back().label));
      }
      ASSERT_EQ(moved.handle, rebuilt.handle)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(moved.q.size(), pending.size());
      ASSERT_EQ(moved.q.next_time(), rebuilt.q.next_time());
    }
    while (!moved.q.empty()) {
      moved.pop();
      rebuilt.pop();
    }
    EXPECT_TRUE(rebuilt.q.empty());
    EXPECT_EQ(moved.fired, rebuilt.fired) << "seed " << seed;
  }
}

// Bursts of moves with no next_time() between them leave stale heap keys
// behind: moves later, to the same time, and earlier than a stale key, and
// cancels of stale entries. Between bursts the twins pop one event, asking
// next_time() first only half the time, and the final drain pops without
// asking, so both ways of re-keying a stale top are driven.
TEST(EventQueue, RescheduleBurstsMatchCancelThenSchedule) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    common::Rng rng(seed);
    Twin moved, rebuilt;
    std::vector<int> pending;  // labels
    std::vector<SimTime> due;  // each label's current time
    SimTime now = SimTime::zero();
    const auto seconds = [&](std::int64_t lo, std::int64_t hi) {
      return SimTime::seconds(static_cast<double>(rng.uniform_int(lo, hi)));
    };
    const auto schedule = [&] {
      const int label = static_cast<int>(moved.handle.size());
      const SimTime at = now + seconds(0, 8);
      moved.handle.push_back(moved.q.schedule(at, moved.callback(label)));
      rebuilt.handle.push_back(rebuilt.q.schedule(at, rebuilt.callback(label)));
      due.push_back(at);
      pending.push_back(label);
    };
    for (int i = 0; i < 24; ++i) schedule();

    for (int burst = 0; burst < 40; ++burst) {
      for (std::int64_t op = rng.uniform_int(1, 12); op > 0; --op) {
        const std::int64_t kind = rng.uniform_int(0, 9);
        if (kind == 0 || pending.empty()) {
          schedule();
          continue;
        }
        const auto i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pending.size()) - 1));
        const auto l = static_cast<std::size_t>(pending[i]);
        if (kind == 1) {
          moved.q.cancel(moved.handle[l]);
          rebuilt.q.cancel(rebuilt.handle[l]);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        SimTime at = due[l];             // kind 2-3: the same time
        if (kind >= 7) {
          at = due[l] + seconds(1, 4);   // later
        } else if (kind >= 4) {
          at = std::max(now, due[l] - seconds(1, 4));  // earlier
        }
        due[l] = at;
        moved.handle[l] = moved.q.reschedule(moved.handle[l], at);
        rebuilt.q.cancel(rebuilt.handle[l]);
        rebuilt.handle[l] =
            rebuilt.q.schedule(at, rebuilt.callback(static_cast<int>(l)));
        ASSERT_EQ(moved.handle, rebuilt.handle)
            << "seed " << seed << " burst " << burst;
      }
      ASSERT_EQ(moved.q.size(), pending.size());
      if (pending.empty()) continue;
      if (rng.chance(0.5)) {
        ASSERT_EQ(moved.q.next_time(), rebuilt.q.next_time())
            << "seed " << seed << " burst " << burst;
      }
      moved.pop();
      rebuilt.pop();
      ASSERT_EQ(moved.fired.back(), rebuilt.fired.back())
          << "seed " << seed << " burst " << burst;
      now = moved.fired.back().at;
      pending.erase(std::find(pending.begin(), pending.end(),
                              moved.fired.back().label));
    }
    while (!moved.q.empty()) {
      moved.pop();
      rebuilt.pop();
    }
    EXPECT_TRUE(rebuilt.q.empty());
    EXPECT_EQ(moved.fired, rebuilt.fired) << "seed " << seed;
  }
}

TEST(Simulation, ClockAdvancesToEventTimes) {
  Simulation sim;
  std::vector<double> at;
  sim.after(SimTime::seconds(2), [&] { at.push_back(sim.now().as_seconds()); });
  sim.after(SimTime::seconds(5), [&] { at.push_back(sim.now().as_seconds()); });
  sim.run();
  EXPECT_EQ(at, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(sim.now().as_seconds(), 5.0);
}

TEST(Simulation, RunUntilDeadlineStopsClock) {
  Simulation sim;
  bool late_fired = false;
  sim.after(SimTime::seconds(100), [&] { late_fired = true; });
  sim.run(SimTime::seconds(10));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now(), SimTime::seconds(10));
}

TEST(Simulation, RunUntilPredicate) {
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.after(SimTime::seconds(1), tick);
  };
  sim.after(SimTime::seconds(1), tick);
  const bool hit = sim.run_until([&] { return ticks >= 7; },
                                 SimTime::seconds(100));
  EXPECT_TRUE(hit);
  EXPECT_EQ(ticks, 7);
}

TEST(Simulation, RunUntilPredicateDeadline) {
  Simulation sim;
  sim.after(SimTime::seconds(1), [] {});
  const bool hit = sim.run_until([] { return false; }, SimTime::seconds(5));
  EXPECT_FALSE(hit);
}

TEST(Simulation, CannotScheduleInPast) {
  Simulation sim;
  sim.after(SimTime::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.at(SimTime::seconds(1), [] {}), Error);
}

TEST(Simulation, RescheduleMovesPendingEventNotIntoPast) {
  Simulation sim;
  SimTime fired_at = SimTime::infinity();
  EventHandle h = sim.after(SimTime::seconds(5), [&] { fired_at = sim.now(); });
  sim.run(SimTime::seconds(2));
  EXPECT_THROW(sim.reschedule(h, SimTime::seconds(1)), Error);
  h = sim.reschedule(h, SimTime::seconds(9));
  sim.run();
  EXPECT_EQ(fired_at, SimTime::seconds(9));
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.after(SimTime::seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.after(SimTime::seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes with remaining events
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) sim.after(SimTime::seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(Simulation, RngStreamsStableAcrossInstances) {
  Simulation a(77), b(77);
  EXPECT_EQ(a.rng_stream("x").next_u64(), b.rng_stream("x").next_u64());
}

TEST(Trace, PointsAndSpans) {
  TraceRecorder tr;
  tr.point(SimTime::seconds(1), "client", "host1", "assign", "r0");
  const std::size_t tok = tr.begin_span(SimTime::seconds(2), "host1", "compute");
  tr.end_span(tok, SimTime::seconds(5));
  ASSERT_EQ(tr.points().size(), 1u);
  EXPECT_EQ(tr.points()[0].component, "client");
  EXPECT_EQ(tr.points()[0].actor, "host1");
  EXPECT_EQ(tr.points()[0].label, "assign");
  EXPECT_EQ(tr.points()[0].detail, "r0");
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, SimTime::seconds(2));
  EXPECT_EQ(spans[0].end, SimTime::seconds(5));
}

TEST(Trace, UnclosedSpansDropped) {
  TraceRecorder tr;
  tr.begin_span(SimTime::seconds(1), "a", "x");
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Trace, EndBeforeBeginThrows) {
  TraceRecorder tr;
  const std::size_t tok = tr.begin_span(SimTime::seconds(5), "a", "x");
  EXPECT_THROW(tr.end_span(tok, SimTime::seconds(1)), Error);
}

TEST(Trace, DoubleCloseThrows) {
  TraceRecorder tr;
  const std::size_t tok = tr.begin_span(SimTime::seconds(1), "a", "x");
  tr.end_span(tok, SimTime::seconds(2));
  EXPECT_THROW(tr.end_span(tok, SimTime::seconds(3)), Error);
}

TEST(Trace, PerActorFilters) {
  TraceRecorder tr;
  tr.point(SimTime::zero(), "c", "a", "x");
  tr.point(SimTime::zero(), "c", "b", "y");
  const std::size_t t1 = tr.begin_span(SimTime::zero(), "a", "s");
  tr.end_span(t1, SimTime::seconds(1));
  EXPECT_EQ(tr.points_for("a").size(), 1u);
  EXPECT_EQ(tr.spans_for("a").size(), 1u);
  EXPECT_EQ(tr.spans_for("b").size(), 0u);
}

TEST(Trace, GanttRendersRowsPerActor) {
  TraceRecorder tr;
  const std::size_t t = tr.begin_span(SimTime::seconds(0), "host1", "compute");
  tr.end_span(t, SimTime::seconds(10));
  tr.point(SimTime::seconds(5), "c", "host2", "report");
  const std::string art = tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 20);
  EXPECT_NE(art.find("host1"), std::string::npos);
  EXPECT_NE(art.find("host2"), std::string::npos);
  EXPECT_NE(art.find('C'), std::string::npos);
  EXPECT_NE(art.find('!'), std::string::npos);
}

TEST(Trace, GanttClipsSpansToWindow) {
  TraceRecorder tr;
  // Begins before the window and ends after it: every cell is covered, and
  // clamping keeps the out-of-window portions from writing out of bounds.
  const std::size_t t =
      tr.begin_span(SimTime::seconds(-5), "host1", "compute");
  tr.end_span(t, SimTime::seconds(100));
  // Far past the window: clamps to the last cell.
  tr.point(SimTime::seconds(999), "c", "host1", "report");
  const std::string art =
      tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 10);
  const std::size_t bar = art.find("|");
  ASSERT_NE(bar, std::string::npos);
  const std::string row = art.substr(bar + 1, 10);
  EXPECT_EQ(row, "CCCCCCCCC!");  // full coverage; far point on the edge
}

TEST(Trace, GanttOmitsUnclosedSpans) {
  TraceRecorder tr;
  tr.begin_span(SimTime::seconds(1), "host1", "xyzspan");  // never closed
  const std::string art =
      tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 10);
  // The actor row renders (first-seen), but the open span paints nothing:
  // its 'X' mark never appears and the row stays idle dots.
  EXPECT_NE(art.find("host1"), std::string::npos);
  EXPECT_EQ(art.find('X'), std::string::npos);
  EXPECT_NE(art.find("|..........|"), std::string::npos);
}

TEST(Trace, GanttRowsFollowFirstSeenActorOrder) {
  TraceRecorder tr;
  tr.point(SimTime::seconds(1), "c", "zeta", "x");
  tr.point(SimTime::seconds(2), "c", "alpha", "x");
  const std::string art =
      tr.ascii_gantt(SimTime::zero(), SimTime::seconds(10), 10);
  EXPECT_LT(art.find("zeta"), art.find("alpha"));
}

TEST(Trace, GanttEmptyWindowThrows) {
  TraceRecorder tr;
  EXPECT_THROW(
      tr.ascii_gantt(SimTime::seconds(5), SimTime::seconds(5), 10), Error);
}

}  // namespace
}  // namespace vcmr::sim
