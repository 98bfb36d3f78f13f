// Steady-state allocation checks for the event core.
//
// Coroutine wakeups are raw resume events, so once the engine's node pool
// has warmed up, a delay or a OneShotEvent round trip must not touch the
// allocator.  This binary counts every global operator new (the odometer
// bench_d7_obs uses) and brackets a window of round trips with two reads
// of the counter; it lives apart from test_des so no other test runs under
// the replaced operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

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

Task<void> await_each(OneShotEvent& ev, int rounds, int& woken) {
  for (int i = 0; i < rounds; ++i) {
    co_await ev.wait();
    ++woken;
    ev.reset();
  }
}

Task<void> fire_each(Engine& e, OneShotEvent& ev, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await delay(e, 1);
    ev.fire(e);
  }
}

TEST(EventCoreAllocs, OneShotEventRoundTripsAllocateNothing) {
  Engine e;
  // One pooled event, rearmed with reset() after every wakeup, as the
  // simrt in-flight slab reuses its records.
  OneShotEvent ev;
  constexpr int kRounds = kWarm + kWindow + 10;
  int woken = 0;
  e.spawn(await_each(ev, kRounds, woken));
  e.spawn(fire_each(e, ev, kRounds));
  EXPECT_EQ(window_allocs(e), 0u);
  e.run();
  EXPECT_EQ(woken, kRounds);
}

}  // namespace
}  // namespace polaris::des
