#include "polaris/des/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "polaris/des/task.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

Engine::Engine() : buckets_(kWheelSpan) {}

// ----------------------------------------------------------- 4-ary heap
//
// Far-future overflow queue.  A 4-ary implicit heap halves tree depth vs
// binary, and both sifts move a hole instead of swapping (one store per
// level, not three) — the same strategy std::push_heap/pop_heap use.

void Engine::heap_push(HeapEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::heap_pop_top() {
  const HeapEntry item = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], item)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = item;
}

// ----------------------------------------------------------- timer wheel
//
// The occupancy bitmap has one bit per bucket and a summary bit per 64
// buckets, so finding the next occupied bucket is two masked
// count-trailing-zeros probes regardless of how sparse the wheel is.

void Engine::set_bucket_bit(std::size_t b) {
  bitmap_[b >> 6] |= std::uint64_t{1} << (b & 63);
  summary_[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
}

void Engine::clear_bucket_bit(std::size_t b) {
  const std::size_t w = b >> 6;
  if ((bitmap_[w] &= ~(std::uint64_t{1} << (b & 63))) == 0) {
    summary_[b >> 12] &= ~(std::uint64_t{1} << (w & 63));
  }
}

std::size_t Engine::next_bucket(std::size_t from) const {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  const std::size_t w = from >> 6;
  if (const std::uint64_t word = bitmap_[w] & (kAll << (from & 63))) {
    return (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
  }
  // Walk the summary from the following word, wrapping; revisiting the
  // start word unmasked is the wrap-around case and is intentional.
  std::size_t sw = (w + 1) & (kWheelWords - 1);
  std::size_t si = sw >> 6;
  std::uint64_t s = summary_[si] & (kAll << (sw & 63));
  for (std::size_t round = 0; round <= kSummaryWords; ++round) {
    if (s != 0) {
      const std::size_t word_idx =
          (si << 6) | static_cast<std::size_t>(std::countr_zero(s));
      return (word_idx << 6) |
             static_cast<std::size_t>(std::countr_zero(bitmap_[word_idx]));
    }
    si = (si + 1) % kSummaryWords;
    s = summary_[si];
  }
  POLARIS_CHECK_MSG(false, "next_bucket on an empty wheel");
  return 0;
}

void Engine::unlink_bucket_head(std::size_t b) {
  Bucket& bk = buckets_[b];
  const std::uint32_t next = pool_[bk.head].next;
  bk.head = next;
  if (next == kNilSlot) {
    bk.tail = kNilSlot;
    clear_bucket_bit(b);
  }
  --wheel_count_;
}

// ----------------------------------------------------------- node pool

std::uint32_t Engine::acquire_node() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back();
  return slot;
}

void Engine::release_node(std::uint32_t slot) {
  EventNode& n = pool_[slot];
  // Clearing the tombstone and bumping invalidates every outstanding
  // EventId for this slot.
  n.gen = ((n.gen & ~kTombstone) + 1) & ~kTombstone;
  free_.push_back(slot);
}

void Engine::reap(std::uint32_t slot) {
  release_node(slot);
  ++stats_.cancelled_skipped;
}

void Engine::reap_cancelled_top() {
  while (!heap_.empty() && tombstoned(pool_[heap_[0].slot])) {
    const std::uint32_t slot = heap_[0].slot;
    heap_pop_top();
    reap(slot);
  }
}

// ----------------------------------------------------------- scheduling

EventId Engine::schedule_raw_at(SimTime t, RawCallback fn, void* ctx) {
  POLARIS_CHECK_MSG(t >= now_, "cannot schedule into the simulated past");
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = acquire_node();
  EventNode& n = pool_[slot];
  n.t = t;
  n.seq = seq;
  n.fn = fn;
  n.ctx = ctx;
  if (static_cast<std::uint64_t>(t - now_) < kWheelSpan) {
    const std::size_t b = static_cast<std::size_t>(t) & kWheelMask;
    Bucket& bk = buckets_[b];
    n.next = kNilSlot;
    if (bk.head == kNilSlot) {
      bk.head = bk.tail = slot;
      set_bucket_bit(b);
    } else {
      pool_[bk.tail].next = slot;
      bk.tail = slot;
    }
    ++wheel_count_;
  } else {
    heap_push(HeapEntry{t, seq, slot});
  }
  ++stats_.scheduled;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  stats_.max_pool_in_use =
      std::max(stats_.max_pool_in_use, pool_.size() - free_.size());
  return EventId{slot, n.gen};
}

bool Engine::step() { return step_bounded(std::numeric_limits<SimTime>::max()); }

bool Engine::step_bounded(SimTime until) {
  if (stopped_) return false;
  // Wheel candidate: reap tombstoned bucket heads lazily until a live
  // event (or nothing) fronts the wheel.
  std::uint32_t wheel_slot = kNilSlot;
  std::size_t wheel_bucket = 0;
  while (wheel_count_ != 0) {
    const std::size_t b =
        next_bucket(static_cast<std::size_t>(now_) & kWheelMask);
    const std::uint32_t head = buckets_[b].head;
    if (tombstoned(pool_[head])) {
      unlink_bucket_head(b);
      reap(head);
      continue;
    }
    wheel_slot = head;
    wheel_bucket = b;
    break;
  }
  // Heap candidate, then merge: heap times drift into the wheel window as
  // now() advances, so ties on time break on sequence number.
  reap_cancelled_top();
  std::uint32_t slot;
  bool from_wheel;
  if (wheel_slot != kNilSlot && !heap_.empty()) {
    const EventNode& wn = pool_[wheel_slot];
    const HeapEntry& h = heap_[0];
    from_wheel = (wn.t != h.t) ? wn.t < h.t : wn.seq < h.seq;
    slot = from_wheel ? wheel_slot : h.slot;
  } else if (wheel_slot != kNilSlot) {
    from_wheel = true;
    slot = wheel_slot;
  } else if (!heap_.empty()) {
    from_wheel = false;
    slot = heap_[0].slot;
  } else {
    return false;
  }
  EventNode& n = pool_[slot];
  if (n.t > until) return false;
  if (from_wheel) {
    unlink_bucket_head(wheel_bucket);
  } else {
    heap_pop_top();
  }
  now_ = n.t;
  // Release the node before invoking: the callback may schedule (reusing
  // this slot) and a later cancel of this fired event must see a bumped
  // generation.
  const RawCallback fn = n.fn;
  void* const ctx = n.ctx;
  release_node(slot);
  ++executed_;
  fn(ctx);
  return true;
}

SimTime Engine::next_event_time() const {
  SimTime best = kNoEventTime;
  if (wheel_count_ != 0) {
    // Wheel buckets are one tick wide and hold only times in
    // [now, now + span), so the first occupied bucket at/after now's
    // position (wrapping) fronts the earliest wheel event.
    const std::size_t b =
        next_bucket(static_cast<std::size_t>(now_) & kWheelMask);
    best = pool_[buckets_[b].head].t;
  }
  if (!heap_.empty() && heap_[0].t < best) best = heap_[0].t;
  return best;
}

std::size_t Engine::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (step()) ++n;
  maybe_rethrow();
  return n;
}

std::size_t Engine::run_until(SimTime until) {
  POLARIS_CHECK(until >= now_);
  stopped_ = false;
  std::size_t n = 0;
  // step_bounded reaps tombstones before the boundary test, so the bound
  // applies to the next *live* event, not a cancelled placeholder.
  while (step_bounded(until)) ++n;
  if (now_ < until) now_ = until;
  maybe_rethrow();
  return n;
}

void Engine::maybe_rethrow() {
  if (error_) {
    auto e = std::move(error_);
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

namespace {

/// Root coroutine that drives a detached Task and reports its outcome to
/// the engine.  It starts suspended, so spawn() can hand its handle to the
/// engine as one raw event; the frame self-destroys on completion
/// (final_suspend never suspends), which is safe because nothing awaits a
/// DetachedProcess.
struct DetachedProcess {
  struct promise_type {
    DetachedProcess get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }  // drive() catches all
  };
  std::coroutine_handle<promise_type> handle;
};

DetachedProcess drive(Engine& engine, Task<void> task) {
  engine.note_process_started();
  try {
    co_await std::move(task);
  } catch (...) {
    engine.report_error(std::current_exception());
  }
  engine.note_process_finished();
}

}  // namespace

void Engine::spawn(Task<void> task) {
  // Start the root on a zero-delay event so spawn() itself never reenters
  // user code; all execution happens inside run().
  schedule_raw_at(now_, &start_root,
                  drive(*this, std::move(task)).handle.address());
}

Engine::~Engine() {
  // A root whose start event is still queued never ran: destroying its
  // frame destroys the Task it holds.  Start events are scheduled at now(),
  // so they sit in the wheel, never in the heap.  Collect first, because a
  // dying task's destructors may touch the queue.
  std::vector<void*> roots;
  if (wheel_count_ != 0) {
    for (const Bucket& bk : buckets_) {
      for (std::uint32_t s = bk.head; s != kNilSlot; s = pool_[s].next) {
        if (pool_[s].fn == &start_root) roots.push_back(pool_[s].ctx);
      }
    }
  }
  for (void* root : roots) {
    std::coroutine_handle<>::from_address(root).destroy();
  }
}

}  // namespace polaris::des
