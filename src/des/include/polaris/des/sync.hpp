// Coroutine synchronization primitives for simulated processes: one-shot
// triggers, value mailboxes, and counting semaphores (used for resource
// serialization, e.g. modelling link occupancy).
//
// All resumptions are funnelled through Engine::schedule_resume_after(0, h)
// — a raw event on the handle's address, which allocates nothing — so
// same-time wakeups execute in FIFO order, recursion depth stays bounded,
// and a primitive may be fired from inside another coroutine safely.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

namespace detail {

/// FIFO on one vector with a moving head.  A pop advances the head; the
/// vector is reset when it drains and compacted once the popped prefix is
/// half of it, so a queue of bounded depth stops allocating once the vector
/// fits it (std::deque frees and reallocates a block every few dozen
/// elements that pass through).
template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  T& front() { return items_[head_]; }
  void push(T v) { items_.push_back(std::move(v)); }
  T pop() {
    T v = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace detail

/// One-shot event: coroutines await it; fire() releases all current and
/// future waiters.  Await-after-fire completes immediately.  The first
/// waiter is held inline, so a Trigger with a single waiter never
/// allocates.
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}
  Trigger(Trigger&&) = delete;  // waiters hold a pointer to this

  bool fired() const { return fired_; }

  /// Fires the trigger, waking waiters in the order they arrived.
  /// Idempotent.
  void fire() {
    if (fired_) return;
    fired_ = true;
    if (first_) engine_->schedule_resume_after(0, first_);
    for (auto h : more_) engine_->schedule_resume_after(0, h);
    first_ = {};
    more_.clear();
  }

  struct Awaiter {
    Trigger& trigger;
    bool await_ready() const noexcept { return trigger.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!trigger.first_) {
        trigger.first_ = h;
      } else {
        trigger.more_.push_back(h);
      }
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return Awaiter{*this}; }
  Awaiter operator co_await() { return Awaiter{*this}; }

 private:
  Engine* engine_;
  bool fired_ = false;
  std::coroutine_handle<> first_{};
  std::vector<std::coroutine_handle<>> more_;
};

/// Intrusive single-waiter one-shot: the pooled counterpart of Trigger for
/// hot paths that embed completion state in slab records (e.g. the simrt
/// in-flight pool).  Two words, no engine pointer, never allocates, and
/// reset() rearms it for slab reuse.  fire() funnels the waiter through a
/// zero-delay resume event exactly as Trigger does, so wakeup ordering is
/// identical: swapping one for the other cannot shift simulated timing.
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
  Awaiter operator co_await() { return Awaiter{*this}; }

 private:
  bool fired_ = false;
  std::coroutine_handle<> waiter_{};
};

/// Unbounded FIFO channel of T.  Multiple producers and consumers; values
/// are delivered to consumers in arrival order.
template <typename T>
class Mailbox {
 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> value;
  };

 public:
  explicit Mailbox(Engine& engine) : engine_(&engine) {}
  Mailbox(Mailbox&&) = delete;  // waiters hold a pointer to this

  /// Deposits a value; wakes the oldest waiting consumer, if any.
  void push(T value) {
    if (!consumers_.empty()) {
      Waiter* w = consumers_.pop();
      w->value.emplace(std::move(value));
      auto h = w->handle;
      engine_->schedule_resume_after(0, h);
    } else {
      values_.push(std::move(value));
    }
  }

  std::size_t size() const { return values_.size(); }
  bool has_waiters() const { return !consumers_.empty(); }

  struct [[nodiscard]] GetAwaiter {
    Mailbox& mb;
    Waiter self{};

    bool await_ready() noexcept { return !mb.values_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      self.handle = h;
      mb.consumers_.push(&self);
    }
    T await_resume() {
      if (self.value.has_value()) {
        return std::move(*self.value);
      }
      POLARIS_CHECK(!mb.values_.empty());
      return mb.values_.pop();
    }
  };

  /// Awaits the next value:  `T v = co_await mb.get();`
  GetAwaiter get() { return GetAwaiter{*this}; }

  /// Non-blocking take.
  std::optional<T> try_get() {
    if (values_.empty()) return std::nullopt;
    return values_.pop();
  }

 private:
  friend struct GetAwaiter;

  Engine* engine_;
  detail::Fifo<T> values_;
  detail::Fifo<Waiter*> consumers_;
};

/// Counting semaphore with FIFO grant order; models contended resources
/// such as link occupancy, NIC DMA engines, or bounded service stations.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t initial)
      : engine_(&engine), count_(initial) {
    POLARIS_CHECK(initial >= 0);
  }
  Semaphore(Semaphore&&) = delete;  // waiters hold a pointer to this

  std::int64_t available() const { return count_; }
  std::size_t waiters() const { return waiters_.size(); }

  struct [[nodiscard]] AcquireAwaiter {
    Semaphore& sem;
    std::int64_t n;
    std::coroutine_handle<> handle;

    bool await_ready() noexcept {
      if (sem.waiters_.empty() && sem.count_ >= n) {
        sem.count_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      sem.waiters_.push(this);
    }
    void await_resume() const noexcept {}
  };

  /// Awaits until `n` units are available, then takes them.  Grants are
  /// strictly FIFO: a large request blocks later small ones (no starvation).
  AcquireAwaiter acquire(std::int64_t n = 1) {
    POLARIS_CHECK(n >= 0);
    return AcquireAwaiter{*this, n, {}};
  }

  /// Returns `n` units and wakes waiters whose requests now fit.
  void release(std::int64_t n = 1) {
    POLARIS_CHECK(n >= 0);
    count_ += n;
    grant();
  }

 private:
  friend struct AcquireAwaiter;

  void grant() {
    while (!waiters_.empty() && waiters_.front()->n <= count_) {
      AcquireAwaiter* w = waiters_.pop();
      count_ -= w->n;
      auto h = w->handle;
      engine_->schedule_resume_after(0, h);
    }
  }

  Engine* engine_;
  std::int64_t count_;
  detail::Fifo<AcquireAwaiter*> waiters_;
};

/// Join-counter for fan-out/fan-in: arm() before spawning each child,
/// done() when a child finishes, wait() suspends until the count drains.
/// Equivalent to the counter+Trigger idiom, packaged.
class WaitGroup {
 public:
  explicit WaitGroup(Engine& engine) : trigger_(engine) {}
  WaitGroup(WaitGroup&&) = delete;

  void arm(std::size_t n = 1) {
    POLARIS_CHECK_MSG(!trigger_.fired(), "arm() after the group drained");
    count_ += n;
  }

  void done() {
    POLARIS_CHECK_MSG(count_ > 0, "done() without a matching arm()");
    if (--count_ == 0) trigger_.fire();
  }

  /// Awaits the count reaching zero.  A group that was never armed is
  /// already drained.
  Trigger::Awaiter wait() {
    if (count_ == 0) trigger_.fire();
    return trigger_.wait();
  }

  std::size_t pending() const { return count_; }

 private:
  std::size_t count_ = 0;
  Trigger trigger_;
};

}  // namespace polaris::des
