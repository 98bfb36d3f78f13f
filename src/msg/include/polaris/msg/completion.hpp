// Completion queue.
//
// Nonblocking operations post completion records here; the application (or
// a progress thread) polls.  Used by the real threaded runtime; the
// simulated runtime completes through des::OneShotEvents instead.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

namespace polaris::msg {

enum class CompletionKind : std::uint8_t {
  kSend,
  kRecv,
  kPut,
  kGet,
  kAm,
};

struct Completion {
  CompletionKind kind = CompletionKind::kSend;
  std::uint64_t request = 0;  ///< the operation's request id
  int peer = -1;              ///< remote rank
  int tag = -1;
  std::uint64_t bytes = 0;
};

/// Single-consumer completion queue (callers provide external locking when
/// shared; the rt endpoint owns one per rank under its own lock).
class CompletionQueue {
 public:
  void push(Completion c) { queue_.push_back(c); }

  /// Removes and returns the oldest completion, if any.
  std::optional<Completion> poll() {
    if (queue_.empty()) return std::nullopt;
    Completion c = queue_.front();
    queue_.pop_front();
    return c;
  }

  std::size_t depth() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

 private:
  std::deque<Completion> queue_;
};

}  // namespace polaris::msg
