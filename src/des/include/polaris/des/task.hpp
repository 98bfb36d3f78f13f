// Lazily-started coroutine task for simulated processes.
//
// A simulated process (a rank program, a NIC engine, a scheduler loop) is a
// C++20 coroutine returning Task<T>.  Tasks compose with co_await and use
// symmetric transfer to resume their awaiter on completion, so arbitrarily
// deep call chains run in constant stack space.  Top-level tasks are handed
// to Engine::spawn(), which drives them as detached processes.
//
// Tasks themselves carry no engine reference: anything that needs simulated
// time (delays, one-shot events) takes the Engine explicitly.  One class
// template covers every result type; Task<void> differs only in its
// promise's return channel and in await_resume returning nothing.
#pragma once

#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>

#include "polaris/des/engine.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      // Resume whoever awaited us; if detached (no awaiter), just stop —
      // the Task destructor will free the frame.
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

/// The promise's return channel: a value slot for Task<T>, none for
/// Task<void>.
template <typename T>
struct ReturnSlot {
  T value{};
  void return_value(T v) { value = std::move(v); }
};

template <>
struct ReturnSlot<void> {
  void return_void() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase, detail::ReturnSlot<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  // -- awaitable interface --------------------------------------------------
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    POLARIS_CHECK_MSG(handle_ && !handle_.done(), "awaiting an empty task");
    handle_.promise().continuation = awaiter;
    return handle_;  // start the child (symmetric transfer)
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
    if constexpr (!std::is_void_v<T>) return std::move(p.value);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable that suspends the current coroutine for `dt` simulated time.
///
///   co_await delay(engine, des::kMicrosecond * 5);
class DelayAwaiter {
 public:
  DelayAwaiter(Engine& engine, SimTime dt) : engine_(engine), dt_(dt) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    engine_.schedule_resume_after(dt_, h);
  }
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  SimTime dt_;
};

inline DelayAwaiter delay(Engine& engine, SimTime dt) {
  POLARIS_CHECK(dt >= 0);
  return DelayAwaiter(engine, dt);
}

/// Awaitable that reschedules the current coroutine at the same simulated
/// time (a cooperative yield, useful to let same-time events interleave).
inline DelayAwaiter yield(Engine& engine) { return DelayAwaiter(engine, 0); }

}  // namespace polaris::des
