// Move-only type-erased callable with a small-buffer optimization
// (std::move_only_function is C++23; this is the C++20 equivalent the event
// engine needs for callbacks that capture move-only state such as coroutine
// tasks).
//
// Callables that fit the inline buffer and are nothrow-move-constructible
// are stored in place — no heap allocation.  The discrete-event engine
// boxes its general callbacks (spawned processes, fault-injector lambdas)
// in these; a capture of a few pointers fits the 48-byte budget, larger
// captures fall back to the heap and `heap_allocated()` lets callers count
// those misses.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace polaris::support {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline storage budget.  Sized for the engine's common captures (a
  /// task or a handle plus a couple of pointers) with room to spare.
  static constexpr std::size_t kInlineBytes = 48;

  UniqueFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>() && std::is_trivially_copyable_v<D>) {
      // Trivial inline target: manage_ stays null — destruction is a
      // no-op and moves are a fixed-size memcpy, so the event-engine hot
      // path pays no indirect management calls.
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      inline_ = true;
      invoke_ = [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      };
    } else if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      inline_ = true;
      invoke_ = [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            std::launder(reinterpret_cast<D*>(self))->~D();
            break;
          case Op::kMoveFrom:
            ::new (self)
                D(std::move(*std::launder(reinterpret_cast<D*>(other))));
            std::launder(reinterpret_cast<D*>(other))->~D();
            break;
        }
      };
    } else {
      ptr(storage_) = new D(std::forward<F>(f));
      inline_ = false;
      invoke_ = [](void* s, Args&&... args) -> R {
        return (*static_cast<D*>(ptr(s)))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            delete static_cast<D*>(ptr(self));
            break;
          case Op::kMoveFrom:
            ptr(self) = std::exchange(ptr(other), nullptr);
            break;
        }
      };
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the target lives on the heap (capture exceeded the inline
  /// buffer or has a throwing move).  False for empty or inline targets.
  bool heap_allocated() const { return invoke_ != nullptr && !inline_; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kDestroy, kMoveFrom };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* self, void* other);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  static void*& ptr(void* s) { return *static_cast<void**>(s); }
  static void* ptr(const void* s) {
    return *static_cast<void* const*>(const_cast<void*>(s));
  }

  void reset() {
    if (invoke_) {
      if (manage_) manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  void move_from(UniqueFunction& other) noexcept {
    invoke_ = std::exchange(other.invoke_, nullptr);
    manage_ = std::exchange(other.manage_, nullptr);
    inline_ = other.inline_;
    if (invoke_) {
      if (manage_) {
        manage_(Op::kMoveFrom, storage_, other.storage_);
      } else {
        // Trivial inline target: copying the whole buffer is cheaper than
        // a size dispatch (storage_ starts zeroed, so the tail is defined).
        std::memcpy(storage_, other.storage_, kInlineBytes);
      }
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes] = {};
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  bool inline_ = false;
};

}  // namespace polaris::support
