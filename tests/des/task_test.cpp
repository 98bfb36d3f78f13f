#include "polaris/des/task.hpp"
#include "testing/closures.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace polaris::des {
namespace {

Task<void> simple_sleeper(Engine& e, SimTime dt, bool& done) {
  co_await delay(e, dt);
  done = true;
}

TEST(Task, SpawnedProcessRunsToCompletion) {
  Engine e;
  bool done = false;
  e.spawn(simple_sleeper(e, 100, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 100);
  EXPECT_EQ(e.live_processes(), 0u);
}

Task<int> returns_value(Engine& e) {
  co_await delay(e, 10);
  co_return 42;
}

Task<void> awaits_value(Engine& e, int& out) {
  out = co_await returns_value(e);
}

TEST(Task, ValueReturningTaskComposes) {
  Engine e;
  int out = 0;
  e.spawn(awaits_value(e, out));
  e.run();
  EXPECT_EQ(out, 42);
}

Task<int> add_chain(Engine& e, int depth) {
  if (depth == 0) co_return 0;
  const int below = co_await add_chain(e, depth - 1);
  co_return below + 1;
}

Task<void> deep_chain_driver(Engine& e, int& out) {
  out = co_await add_chain(e, 5000);
}

TEST(Task, DeepCompositionDoesNotOverflowStack) {
  // Symmetric transfer must make 5000-deep task chains safe.
  Engine e;
  int out = 0;
  e.spawn(deep_chain_driver(e, out));
  e.run();
  EXPECT_EQ(out, 5000);
}

Task<void> multi_sleep(Engine& e, std::vector<SimTime>& wakeups) {
  for (int i = 0; i < 3; ++i) {
    co_await delay(e, 10);
    wakeups.push_back(e.now());
  }
}

TEST(Task, SequentialDelaysAccumulate) {
  Engine e;
  std::vector<SimTime> wakeups;
  e.spawn(multi_sleep(e, wakeups));
  e.run();
  EXPECT_EQ(wakeups, (std::vector<SimTime>{10, 20, 30}));
}

TEST(Task, ManyConcurrentProcessesInterleave) {
  Engine e;
  int completed = 0;
  auto proc = [](Engine& eng, SimTime dt, int& n) -> Task<void> {
    co_await delay(eng, dt);
    ++n;
  };
  for (SimTime dt = 1; dt <= 100; ++dt) e.spawn(proc(e, dt, completed));
  EXPECT_EQ(e.live_processes(), 0u);  // not started until run()
  e.run();
  EXPECT_EQ(completed, 100);
  EXPECT_EQ(e.now(), 100);
}

Task<void> thrower(Engine& e) {
  co_await delay(e, 5);
  throw std::runtime_error("sim process failed");
}

TEST(Task, ExceptionPropagatesOutOfRun) {
  Engine e;
  e.spawn(thrower(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

Task<void> catches_child_error(Engine& e, bool& caught) {
  try {
    co_await thrower(e);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, AwaiterCanCatchChildException) {
  Engine e;
  bool caught = false;
  e.spawn(catches_child_error(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

Task<void> yielder(Engine& e, std::vector<int>& order, int id) {
  order.push_back(id * 10);
  co_await yield(e);
  order.push_back(id * 10 + 1);
}

TEST(Task, YieldInterleavesSameTimeProcesses) {
  Engine e;
  std::vector<int> order;
  e.spawn(yielder(e, order, 1));
  e.spawn(yielder(e, order, 2));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21}));
  EXPECT_EQ(e.now(), 0);
}

Task<int> immediate() { co_return 7; }

Task<void> awaits_immediate(int& out) { out = co_await immediate(); }

TEST(Task, TaskCompletingWithoutSuspensionStillDeliversValue) {
  Engine e;
  int out = 0;
  e.spawn(awaits_immediate(out));
  e.run();
  EXPECT_EQ(out, 7);
}

TEST(Task, LiveProcessCountTracksSpawnedWork) {
  Engine e;
  testkit::Closures cl(e);
  auto proc = [](Engine& eng) -> Task<void> { co_await delay(eng, 10); };
  e.spawn(proc(e));
  e.spawn(proc(e));
  cl.at(5, [&] { EXPECT_EQ(e.live_processes(), 2u); });
  e.run();
  EXPECT_EQ(e.live_processes(), 0u);
}

}  // namespace
}  // namespace polaris::des
