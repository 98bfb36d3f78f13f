// Test-only closures on the raw event engine.
//
// des::Engine schedules only raw (fn, ctx) events.  Tests that want a
// lambda per event schedule it through a Closures, which owns every
// closure it was handed until the Closures itself dies, so a fired or
// cancelled event never leaves its ctx dangling.  Keep it alive until the
// engine's last run.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "polaris/des/engine.hpp"

namespace polaris::testkit {

class Closures {
 public:
  explicit Closures(des::Engine& engine) : engine_(engine) {}

  /// Schedules `fn()` at absolute time `t`: one raw event, same order as
  /// any other event scheduled at that point.
  des::EventId at(des::SimTime t, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return engine_.schedule_raw_at(t, &call, &fns_.back());
  }

  /// Schedules `fn()` at now() + dt.
  des::EventId after(des::SimTime dt, std::function<void()> fn) {
    return at(engine_.now() + dt, std::move(fn));
  }

 private:
  static void call(void* fn) { (*static_cast<std::function<void()>*>(fn))(); }

  des::Engine& engine_;
  std::deque<std::function<void()>> fns_;  ///< deque: stable addresses
};

}  // namespace polaris::testkit
