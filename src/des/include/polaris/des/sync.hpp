// The one coroutine wakeup primitive for simulated processes: a pooled,
// single-waiter one-shot event.  Joins (a sendrecv pair, a packet fan-in)
// count down in the awaiting frame and fire the event on the last child.
//
// The resumption is funnelled through Engine::schedule_resume_after(0, h)
// — a raw event on the handle's address, which allocates nothing — so
// same-time wakeups execute in FIFO order, recursion depth stays bounded,
// and the event may be fired from inside another coroutine safely.
#pragma once

#include <coroutine>

#include "polaris/des/engine.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

/// Intrusive single-waiter one-shot, small enough to embed in slab records
/// (e.g. the simrt in-flight pool).  Two words, no engine pointer, never
/// allocates, and reset() rearms it for slab reuse.  fire() wakes the
/// waiter on a zero-delay resume event, so where it stands in for a wider
/// primitive with one waiter, wakeup ordering — and so simulated timing —
/// is unchanged.
class OneShotEvent {
 public:
  bool fired() const { return fired_; }

  /// Fires the event, waking the waiter (if any) on a zero-delay engine
  /// event.  Idempotent.
  void fire(Engine& engine) {
    if (fired_) return;
    fired_ = true;
    if (waiter_) {
      engine.schedule_resume_after(0, waiter_);
      waiter_ = {};
    }
  }

  /// Rearms a fired event (callers guarantee no waiter is parked).
  void reset() {
    POLARIS_DCHECK(!waiter_);
    fired_ = false;
  }

  struct Awaiter {
    OneShotEvent& event;
    bool await_ready() const noexcept { return event.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      POLARIS_CHECK_MSG(!event.waiter_,
                        "OneShotEvent supports a single waiter");
      event.waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return Awaiter{*this}; }

 private:
  bool fired_ = false;
  std::coroutine_handle<> waiter_{};
};

}  // namespace polaris::des
