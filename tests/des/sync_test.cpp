#include "polaris/des/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "polaris/des/task.hpp"
#include "testing/closures.hpp"

namespace polaris::des {
namespace {

// ----------------------------------------------------------- OneShotEvent

Task<void> wait_event(OneShotEvent& ev, Engine& e, std::vector<SimTime>& log) {
  co_await ev.wait();
  log.push_back(e.now());
}

Task<void> fire_later(OneShotEvent& ev, Engine& e, SimTime at) {
  co_await delay(e, at);
  ev.fire(e);
}

TEST(OneShotEvent, ReleasesWaiterAtFireTime) {
  Engine e;
  OneShotEvent ev;
  std::vector<SimTime> log;
  e.spawn(wait_event(ev, e, log));
  e.spawn(fire_later(ev, e, 50));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{50}));
  EXPECT_TRUE(ev.fired());
}

TEST(OneShotEvent, AwaitAfterFireCompletesImmediately) {
  Engine e;
  OneShotEvent ev;
  ev.fire(e);
  std::vector<SimTime> log;
  e.spawn(wait_event(ev, e, log));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{0}));
  // Firing with no waiter parked schedules nothing.
  EXPECT_EQ(e.stats().executed, 1u);  // the spawn's start event
}

TEST(OneShotEvent, FireIsIdempotent) {
  Engine e;
  testkit::Closures cl(e);
  OneShotEvent ev;
  std::vector<SimTime> log;
  e.spawn(wait_event(ev, e, log));
  cl.at(10, [&] {
    ev.fire(e);
    ev.fire(e);
  });
  e.run();
  EXPECT_EQ(log.size(), 1u);
}

TEST(OneShotEvent, ResetRearmsForTheNextWaiter) {
  Engine e;
  OneShotEvent ev;
  std::vector<SimTime> log;
  auto twice = [&]() -> Task<void> {
    co_await ev.wait();
    log.push_back(e.now());
    ev.reset();
    EXPECT_FALSE(ev.fired());
    co_await ev.wait();  // parks again: the reset event is not fired
    log.push_back(e.now());
  };
  e.spawn(twice());
  e.spawn(fire_later(ev, e, 10));
  e.spawn(fire_later(ev, e, 30));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{10, 30}));
}

}  // namespace
}  // namespace polaris::des
