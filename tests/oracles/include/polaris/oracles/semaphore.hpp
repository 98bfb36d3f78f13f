// Counting semaphore with FIFO grant order: the per-link resource of the
// ReferenceNetwork oracle, its only user.  It left the production `des`
// library with the oracle; the class is unchanged, so the oracle still
// serializes packets exactly as the historical data path did.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
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

}  // namespace polaris::des
