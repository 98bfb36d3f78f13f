// Steady-state allocation checks for the event core.
//
// Coroutine wakeups are raw resume events, so once the engine's node pool
// has warmed up, a delay, a Trigger round trip or a Mailbox round trip must
// not touch the allocator.  This binary counts every global operator new
// (the odometer bench_d7_obs uses) and brackets a window of round trips
// with two reads of the counter; it lives apart from test_des so no other
// test runs under the replaced operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/sync.hpp"
#include "polaris/des/task.hpp"

// Frees go straight to std::free so the override stays symmetric.  (GCC
// pairs the std allocator's operator-new calls with this file's free-based
// operator delete and warns; the pair is in fact malloc/free.)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace polaris::des {
namespace {

constexpr int kWarm = 1000;
constexpr int kWindow = 10'000;

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// Runs the engine through the warm-up ticks, then returns how many
/// allocations the next kWindow ticks made.
std::uint64_t window_allocs(Engine& e) {
  e.run_until(kWarm);
  const std::uint64_t before = allocs();
  e.run_until(kWarm + kWindow);
  return allocs() - before;
}

Task<void> sleeper(Engine& e, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await delay(e, 1);
}

TEST(EventCoreAllocs, DelayRoundTripsAllocateNothing) {
  Engine e;
  for (int p = 0; p < 4; ++p) e.spawn(sleeper(e, kWarm + kWindow + 10));
  EXPECT_EQ(window_allocs(e), 0u);
  e.run();
  EXPECT_EQ(e.live_processes(), 0u);
}

Task<void> await_each(std::vector<std::unique_ptr<Trigger>>& triggers,
                      int& woken) {
  for (auto& t : triggers) {
    co_await *t;
    ++woken;
  }
}

Task<void> fire_each(Engine& e,
                     std::vector<std::unique_ptr<Trigger>>& triggers) {
  for (auto& t : triggers) {
    co_await delay(e, 1);
    t->fire();
  }
}

TEST(EventCoreAllocs, TriggerRoundTripsAllocateNothing) {
  Engine e;
  // A Trigger is one-shot: every round trip gets its own, built up front.
  std::vector<std::unique_ptr<Trigger>> triggers;
  for (int i = 0; i < kWarm + kWindow + 10; ++i) {
    triggers.push_back(std::make_unique<Trigger>(e));
  }
  int woken = 0;
  e.spawn(await_each(triggers, woken));
  e.spawn(fire_each(e, triggers));
  EXPECT_EQ(window_allocs(e), 0u);
  e.run();
  EXPECT_EQ(woken, kWarm + kWindow + 10);
}

Task<void> consume(Mailbox<int>& mb, int n, std::int64_t& sum) {
  for (int i = 0; i < n; ++i) sum += co_await mb.get();
}

Task<void> produce(Engine& e, Mailbox<int>& mb, int n) {
  for (int i = 0; i < n; ++i) {
    co_await delay(e, 1);
    mb.push(i);
  }
}

TEST(EventCoreAllocs, MailboxRoundTripsAllocateNothing) {
  Engine e;
  Mailbox<int> mb(e);
  constexpr int kRounds = kWarm + kWindow + 10;
  std::int64_t sum = 0;
  e.spawn(consume(mb, kRounds, sum));
  e.spawn(produce(e, mb, kRounds));
  EXPECT_EQ(window_allocs(e), 0u);
  e.run();
  EXPECT_EQ(sum, std::int64_t{kRounds} * (kRounds - 1) / 2);
}

}  // namespace
}  // namespace polaris::des
