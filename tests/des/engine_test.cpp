#include "polaris/des/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "polaris/des/task.hpp"
#include "polaris/support/check.hpp"
#include "testing/closures.hpp"

namespace polaris::des {
namespace {

void nop(void*) {}

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  testkit::Closures cl(e);
  std::vector<int> order;
  cl.at(30, [&] { order.push_back(3); });
  cl.at(10, [&] { order.push_back(1); });
  cl.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine e;
  testkit::Closures cl(e);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    cl.at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  testkit::Closures cl(e);
  SimTime seen = -1;
  cl.at(123456789, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 123456789);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  testkit::Closures cl(e);
  SimTime seen = -1;
  cl.at(100, [&] {
    cl.after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150);
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine e;
  testkit::Closures cl(e);
  cl.at(100, [&] {
    EXPECT_THROW(cl.at(50, [] {}), support::ContractViolation);
  });
  e.run();
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  testkit::Closures cl(e);
  bool ran = false;
  auto id = cl.at(10, [&] { ran = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelOfFiredEventIsNoop) {
  Engine e;
  testkit::Closures cl(e);
  auto id = cl.at(10, [] {});
  e.run();
  e.cancel(id);  // must not crash or affect later events
  bool ran = false;
  cl.at(20, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, StopHaltsExecution) {
  Engine e;
  testkit::Closures cl(e);
  int count = 0;
  cl.at(1, [&] { ++count; });
  cl.at(2, [&] {
    ++count;
    e.stop();
  });
  cl.at(3, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 2);
  // A subsequent run resumes with what is left.
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  testkit::Closures cl(e);
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    cl.at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  const auto n = e.run_until(25);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(e.now(), 25);
  e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Engine, RunUntilAdvancesClockOnEmptyQueue) {
  Engine e;
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  testkit::Closures cl(e);
  for (int i = 0; i < 5; ++i) cl.at(i, [] {});
  EXPECT_EQ(e.run(), 5u);
  EXPECT_EQ(e.events_executed(), 5u);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  testkit::Closures cl(e);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) cl.after(1, [&] { chain(); });
  };
  cl.at(0, [&] { chain(); });
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99);
}

TEST(Engine, StatsTrackQueueAndCancellations) {
  Engine e;
  testkit::Closures cl(e);
  for (int i = 0; i < 4; ++i) cl.at(i, [] {});
  const EventId victim = cl.at(10, [] {});
  EXPECT_EQ(e.queue_depth(), 5u);
  e.cancel(victim);
  e.run();

  const EngineStats s = e.stats();
  EXPECT_EQ(s.scheduled, 5u);
  EXPECT_EQ(s.executed, 4u);
  EXPECT_EQ(s.cancelled_skipped, 1u);
  EXPECT_EQ(s.max_queue_depth, 5u);
  EXPECT_EQ(e.queue_depth(), 0u);
}

TEST(Engine, CancelledEventsAreReapedAndSlotsReused) {
  Engine e;
  testkit::Closures cl(e);
  for (int round = 0; round < 100; ++round) {
    auto id = cl.at(e.now() + 1, [] {});
    e.cancel(id);
    cl.at(e.now() + 1, [] {});
    e.run();
  }
  const EngineStats s = e.stats();
  EXPECT_EQ(s.cancelled_skipped, 100u);
  EXPECT_EQ(s.executed, 100u);
  // Node slots recycle: the pool never grows past the per-round peak.
  EXPECT_LE(s.pool_capacity, 2u);
  EXPECT_EQ(s.pool_in_use, 0u);
}

TEST(Engine, CancelAfterSlotReuseDoesNotKillNewEvent) {
  Engine e;
  testkit::Closures cl(e);
  bool first = false, second = false;
  const EventId id1 = cl.at(10, [&] { first = true; });
  e.run();  // id1 fires; its pool slot is released
  const EventId id2 = cl.at(20, [&] { second = true; });
  EXPECT_EQ(id1.slot, id2.slot);  // slot reused...
  e.cancel(id1);                  // ...so this stale cancel must be a no-op
  e.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(Engine, DoubleCancelIsIdempotent) {
  Engine e;
  testkit::Closures cl(e);
  bool ran = false;
  auto id = cl.at(10, [&] { ran = true; });
  e.cancel(id);
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.stats().cancelled_skipped, 1u);
}

TEST(Engine, CancelOfNeverScheduledIdIsNoop) {
  Engine e;
  testkit::Closures cl(e);
  e.cancel(EventId{});         // invalid sentinel
  e.cancel(EventId{123, 45});  // out-of-range slot
  bool ran = false;
  cl.at(1, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

// Regression for the seed engine's cancelled_-set leak: cancelling a fired
// event inserted its sequence number into an unordered_set that nothing
// ever erased.  With generation tombstones the cancel is recognized as
// stale, so a million of them retain no state at all.
TEST(Engine, CancellingAMillionFiredEventsRetainsNoState) {
  Engine e;
  std::vector<EventId> ids;
  constexpr int kEvents = 1'000'000;
  ids.reserve(kEvents);
  constexpr int kBatch = 1000;
  for (int batch = 0; batch < kEvents / kBatch; ++batch) {
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(e.schedule_raw_after(1, &nop, nullptr));
    }
    e.run();
  }
  for (const EventId id : ids) e.cancel(id);  // all already fired
  const EngineStats s = e.stats();
  EXPECT_EQ(s.executed, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(s.cancelled_skipped, 0u);  // no live event was ever cancelled
  EXPECT_EQ(e.queue_depth(), 0u);
  EXPECT_EQ(s.pool_in_use, 0u);
  // Engine state is bounded by the high watermark, not by history.
  EXPECT_LE(s.pool_capacity, static_cast<std::size_t>(kBatch));
  EXPECT_EQ(s.max_pool_in_use, static_cast<std::size_t>(kBatch));
  // And the stale cancels really are no-ops: new events still run.
  bool ran = false;
  e.schedule_raw_after(1, +[](void* p) { *static_cast<bool*>(p) = true; },
                       &ran);
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, RunUntilIgnoresCancelledEventAtHead) {
  Engine e;
  testkit::Closures cl(e);
  bool late_ran = false;
  auto id = cl.at(10, [] {});
  cl.at(50, [&] { late_ran = true; });
  e.cancel(id);
  // The cancelled head must not bait run_until into executing the t=50
  // event before the boundary.
  EXPECT_EQ(e.run_until(25), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(e.now(), 25);
  e.run();
  EXPECT_TRUE(late_ran);
}

TEST(Engine, PoolOccupancyTracksQueueDepth) {
  Engine e;
  testkit::Closures cl(e);
  for (int i = 0; i < 10; ++i) cl.at(i, [] {});
  EngineStats s = e.stats();
  EXPECT_EQ(s.pool_in_use, 10u);
  EXPECT_EQ(s.max_pool_in_use, 10u);
  e.run();
  s = e.stats();
  EXPECT_EQ(s.pool_in_use, 0u);
  EXPECT_EQ(s.max_pool_in_use, 10u);
  EXPECT_EQ(s.pool_capacity, 10u);
}

TEST(Engine, RawCallbacksInterleaveWithClosuresInScheduleOrder) {
  // schedule_raw_* goes through the same queue as closure callbacks and
  // obeys the same (time, sequence) total order.
  Engine e;
  testkit::Closures cl(e);
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int tag;
  };
  static constexpr auto record = +[](void* p) {
    const auto* c = static_cast<Ctx*>(p);
    c->order->push_back(c->tag);
  };
  Ctx a{&order, 1}, b{&order, 3};
  e.schedule_raw_at(10, record, &a);
  cl.at(10, [&] { order.push_back(2); });
  e.schedule_raw_at(5, record, &b);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(Engine, RawCallbacksAreCancellable) {
  Engine e;
  int fired = 0;
  struct Ctx {
    int* fired;
  } c{&fired};
  const EventId id = e.schedule_raw_after(
      7, +[](void* p) { ++*static_cast<Ctx*>(p)->fired; }, &c);
  e.schedule_raw_after(
      9, +[](void* p) { ++*static_cast<Ctx*>(p)->fired; }, &c);
  e.cancel(id);
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 9);
}

TEST(Engine, NextEventTimeOnEmptyEngineIsSentinel) {
  Engine e;
  testkit::Closures cl(e);
  EXPECT_EQ(e.next_event_time(), Engine::kNoEventTime);
  cl.at(5, [] {});
  e.run();
  EXPECT_EQ(e.next_event_time(), Engine::kNoEventTime);
}

TEST(Engine, NextEventTimeSeesWheelAndHeap) {
  Engine e;
  testkit::Closures cl(e);
  cl.at(3, [] {});          // near: timing-wheel window
  cl.at(3 + 50000, [] {});  // far: overflow heap
  EXPECT_EQ(e.next_event_time(), 3);
  e.run_until(3);
  EXPECT_EQ(e.next_event_time(), 3 + 50000);
}

TEST(Engine, NextEventTimeIsALowerBoundUnderCancel) {
  Engine e;
  testkit::Closures cl(e);
  const EventId id = cl.at(3, [] {});
  cl.at(10, [] {});
  e.cancel(id);
  // A tombstoned head may be reported: the contract is a lower bound,
  // which is all conservative synchronization needs.
  EXPECT_LE(e.next_event_time(), 10);
  EXPECT_GE(e.next_event_time(), 3);
  e.run();
  EXPECT_EQ(e.now(), 10);
}

// ------------------------------------------------ raw / resume / spawn
//
// Event nodes hold only a raw (fn, ctx) pair.  Coroutine resumes are raw
// events on the handle's address, and spawn() starts a root coroutine on a
// raw event of its own.  These pin reaping, the shared order and the
// lifetime of roots that never start.

TEST(Engine, CancelledNearAndFarEventsAreReaped) {
  Engine e;
  int fired = 0;
  const Engine::RawCallback count = +[](void* p) { ++*static_cast<int*>(p); };
  // One near (timer wheel) and one far (overflow heap) event: both reap
  // paths must return the node.
  const EventId near = e.schedule_raw_at(10, count, &fired);
  const EventId far = e.schedule_raw_at(10 + 100'000, count, &fired);
  e.schedule_raw_at(20, count, &fired);
  e.cancel(near);
  e.cancel(far);
  EXPECT_EQ(e.stats().pool_in_use, 3u);  // held until reaped
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.stats().cancelled_skipped, 2u);
  EXPECT_EQ(e.stats().pool_in_use, 0u);
  EXPECT_EQ(e.now(), 20);
}

TEST(Engine, PoolCapacityStaysFlatOverAMillionCycles) {
  Engine e;
  std::uint64_t fired = 0;
  const Engine::RawCallback raw = +[](void* p) {
    ++*static_cast<std::uint64_t*>(p);
  };
  constexpr int kCycles = 1'000'000;
  for (int i = 0; i < kCycles; ++i) {
    // schedule/fire of two events, then schedule/cancel of two more, each
    // cancelled one reaped by the run.
    e.schedule_raw_after(1, raw, &fired);
    e.schedule_raw_after(1, raw, &fired);
    e.cancel(e.schedule_raw_after(1, raw, &fired));
    e.cancel(e.schedule_raw_after(1, raw, &fired));
    e.run();
  }
  const EngineStats s = e.stats();
  EXPECT_EQ(fired, 2u * kCycles);
  EXPECT_EQ(s.cancelled_skipped, 2u * kCycles);
  EXPECT_EQ(s.pool_in_use, 0u);
  EXPECT_LE(s.pool_capacity, 4u);
  EXPECT_EQ(s.sbo_misses, 0u);  // nothing is ever boxed
}

TEST(Engine, StaleIdOfFiredBoxedEventIsNoop) {
  // A closure event (one raw event on a closure the test owns) fires; the
  // next one reuses its node, and the stale id must not cancel it.
  Engine e;
  testkit::Closures cl(e);
  int first = 0, second = 0;
  const EventId id1 = cl.at(10, [&] { ++first; });
  e.run();
  const EventId id2 = cl.at(20, [&] { ++second; });
  EXPECT_EQ(id1.slot, id2.slot);
  e.cancel(id1);
  e.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(e.stats().cancelled_skipped, 0u);
}

Task<void> record_after_delay(Engine& e, std::vector<int>& order, int tag) {
  co_await delay(e, 5);
  order.push_back(tag);
}

struct Tagged {
  std::vector<int>* order;
  int tag;
};

void record_tag(void* p) {
  const auto* c = static_cast<Tagged*>(p);
  c->order->push_back(c->tag);
}

TEST(Engine, RawResumeAndBoxedEventsAtOneTickFireInScheduleOrder) {
  Engine e;
  testkit::Closures cl(e);
  std::vector<int> order;
  Tagged first{&order, 1}, last{&order, 4};
  e.schedule_raw_at(5, &record_tag, &first);
  // The spawned process runs at t=0 and schedules its resume for t=5,
  // after the raw event above and before the two below.
  e.spawn(record_after_delay(e, order, 2));
  e.run_until(0);
  cl.at(5, [&order] { order.push_back(3); });
  e.schedule_raw_at(5, &record_tag, &last);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

Task<void> push_yield_push(Engine& e, std::vector<int>& order, int a, int b) {
  order.push_back(a);
  co_await yield(e);  // resume event at the same tick, scheduled now
  order.push_back(b);
}

Task<void> push_now(std::vector<int>& order, int tag) {
  order.push_back(tag);
  co_return;
}

TEST(Engine, RawResumeAndSpawnEventsAtOneTickFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  Tagged one{&order, 1}, three{&order, 3}, five{&order, 5};
  // All at t=0: raw, spawn, raw, spawn, raw.  The first root's yield
  // schedules its resume when it starts, so the resume fires last.
  e.schedule_raw_at(0, &record_tag, &one);
  e.spawn(push_yield_push(e, order, 2, 6));
  e.schedule_raw_at(0, &record_tag, &three);
  e.spawn(push_now(order, 4));
  e.schedule_raw_at(0, &record_tag, &five);
  EXPECT_EQ(e.run(), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, LiveProcessesCountARootOnlyOnceItStarts) {
  Engine e;
  struct Seen {
    Engine* e;
    std::vector<std::size_t> live;
  } seen{&e, {}};
  const Engine::RawCallback look = +[](void* p) {
    auto* s = static_cast<Seen*>(p);
    s->live.push_back(s->e->live_processes());
  };
  auto proc = [](Engine& eng) -> Task<void> { co_await delay(eng, 10); };
  e.schedule_raw_at(0, look, &seen);  // before the root's start event
  e.spawn(proc(e));
  EXPECT_EQ(e.live_processes(), 0u);  // spawned, not started
  e.schedule_raw_at(0, look, &seen);  // after it
  e.run();
  EXPECT_EQ(seen.live, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(e.live_processes(), 0u);
}

/// Counts its own destruction; moved-from probes do not count.
struct Probe {
  explicit Probe(int* d) : destroyed(d) {}
  Probe(Probe&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (destroyed) ++*destroyed;
  }
  int* destroyed;
};

Task<void> hold(Probe probe, int* ran) {
  ++*ran;
  (void)probe;
  co_return;
}

Task<void> fail_now() {
  throw std::runtime_error("process failed");
  co_return;
}

TEST(Engine, SpawnedRootStillQueuedAtEngineDeathIsDestroyed) {
  int destroyed = 0, ran = 0;
  {
    Engine e;
    e.spawn(hold(Probe(&destroyed), &ran));
    EXPECT_EQ(destroyed, 0);  // the probe lives in the queued root
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 1);

  // Left queued by stop().
  destroyed = 0;
  {
    Engine e;
    e.schedule_raw_at(0, +[](void* p) { static_cast<Engine*>(p)->stop(); },
                      &e);
    e.spawn(hold(Probe(&destroyed), &ran));
    EXPECT_EQ(e.run(), 1u);
    EXPECT_EQ(e.queue_depth(), 1u);
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 1);

  // Left queued by a rethrown process error.
  destroyed = 0;
  {
    Engine e;
    e.spawn(fail_now());
    e.spawn(hold(Probe(&destroyed), &ran));
    EXPECT_THROW(e.run(), std::runtime_error);
    EXPECT_EQ(e.live_processes(), 0u);
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(destroyed, 1);

  // A root that ran to completion is not destroyed twice.
  destroyed = 0;
  {
    Engine e;
    e.spawn(hold(Probe(&destroyed), &ran));
    e.run();
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(1e-6), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kMillisecond), 1e-3);
  EXPECT_EQ(from_micros(2.5), 2500);
  EXPECT_DOUBLE_EQ(to_micros(1500), 1.5);
}

}  // namespace
}  // namespace polaris::des
