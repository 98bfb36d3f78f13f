// Determinism of the pooled 4-ary-heap event queue.
//
// The engine's ordering contract — pop in (time, sequence) order, FIFO for
// equal times — defines a strict total order, so the firing sequence must
// match a trivially-correct reference model (stable sort by time) for any
// interleaving of schedules and cancels, and must be identical across
// repeated runs with the same seed.
#include "polaris/des/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "polaris/support/rng.hpp"
#include "testing/closures.hpp"

namespace polaris::des {
namespace {

TEST(EngineDeterminism, SameTimeEventsFireInScheduleOrderAfterHeapChurn) {
  // Interleave distinct-time filler with a batch of same-time events so the
  // heap actually reorders internally; the same-time batch must still fire
  // in schedule order (seq tie-break).
  Engine e;
  testkit::Closures cl(e);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    cl.at(1000, [&order, i] { order.push_back(i); });
    cl.at(2000 - i, [] {});  // filler above the batch
    cl.at(i, [] {});         // filler below the batch
  }
  e.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineDeterminism, MatchesReferenceModelUnderRandomScheduleAndCancel) {
  // Reference: stable sort of live (time, issue-index) pairs == engine's
  // (t, seq) order.  Random workload with cancellation mixed in.
  support::Random rng(0xDE5C0DE);
  Engine e;
  testkit::Closures cl(e);
  struct Ref {
    SimTime t;
    int label;
  };
  std::vector<Ref> ref;
  std::vector<int> fired;
  std::vector<EventId> cancellable;
  int next_label = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<SimTime>(rng.uniform_int(0, 500));
    const int label = next_label++;
    const EventId id =
        cl.at(t, [&fired, label] { fired.push_back(label); });
    if (rng.bernoulli(0.3)) {
      cancellable.push_back(id);
      ref.push_back({t, -1});  // placeholder, cancelled below
    } else {
      ref.push_back({t, label});
    }
  }
  for (const EventId id : cancellable) e.cancel(id);
  e.run();

  std::vector<int> expected;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Ref& a, const Ref& b) { return a.t < b.t; });
  for (const Ref& r : ref) {
    if (r.label >= 0) expected.push_back(r.label);
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(e.stats().cancelled_skipped, cancellable.size());
}

TEST(EngineDeterminism, IdenticalSeedGivesIdenticalRunTwice) {
  auto run_once = [](std::uint64_t seed) {
    support::Random rng(seed);
    Engine e;
    testkit::Closures cl(e);
    std::vector<int> order;
    // Self-rescheduling processes: each event may schedule 0-2 more, with
    // times drawn from the per-run stream.
    int budget = 20000;
    int next_label = 0;
    std::function<void()> tick = [&] {
      order.push_back(next_label++);
      const int kids = static_cast<int>(rng.uniform_int(0, 2));
      for (int k = 0; k < kids && budget > 0; ++k, --budget) {
        const auto dt = static_cast<SimTime>(rng.uniform_int(0, 10));
        cl.after(dt, [&] { tick(); });
      }
    };
    for (int i = 0; i < 50; ++i) {
      cl.at(static_cast<SimTime>(rng.uniform_int(0, 100)), [&] { tick(); });
    }
    e.run();
    return std::pair{order.size(), e.now()};
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace polaris::des
