// Sequential discrete-event simulation engine.
//
// The pending-event set is a two-level structure chosen for the delay
// distribution DES workloads actually produce:
//
//  - A timer wheel of one-tick buckets covering [now, now + 8192) handles
//    the near future in O(1) per schedule and per pop.  Each bucket is an
//    intrusive FIFO of pool slots; because a bucket spans exactly one tick,
//    append order equals sequence order, so wheel pops reproduce the
//    (time, sequence) order of a comparison queue exactly.  A two-level
//    bitmap (bit per bucket, summary bit per word) finds the next occupied
//    bucket with two count-trailing-zeros steps instead of a scan.
//  - A 4-ary implicit min-heap of (time, sequence) keys holds far-future
//    events (delay >= the wheel span).  Heap times can fall inside the
//    wheel window as now() advances, so each pop compares the wheel head
//    with the heap top and breaks time ties on sequence number — total
//    order across both structures is identical to a single queue.
//
// Event nodes live in a slab pool with a free list, and every node is the
// same 40 bytes: the (time, sequence) key, a raw `fn(ctx)` callback, the
// wheel-bucket link and a generation counter.  The raw pair is the engine's
// one event kind.  The fabric walkers and flights, the simrt wire leg,
// serve, rm, pdes and fault injection schedule their own callbacks on
// state they own; a coroutine resume is the shared resume callback on the
// handle's address; and spawn() starts a root coroutine through a spawn
// callback on the root's handle.
//
// Cancellation is O(1) and leak-free: an EventId carries the node's pool
// slot plus a generation counter; cancel() sets the tombstone bit of the
// live node's generation, and the node is reaped (returned to the pool)
// when it reaches the front of its bucket or the top of the heap.  Firing
// or reaping bumps the generation, so a stale EventId — including one for
// an already-fired event — is recognized by the generation mismatch and
// ignored without retaining any state, unlike the earlier unordered_set
// design that kept cancelled-after-fire sequence numbers forever.
//
// Coroutine-based processes (see task.hpp) are resumed exclusively through
// scheduled events, which bounds recursion depth and gives every resumption
// a well-defined simulated time.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "polaris/des/time.hpp"

namespace polaris::des {

template <typename T>
class Task;

/// Handle for cancelling a scheduled event.  Identifies the event by pool
/// slot + generation; stays safely stale after the event fires.
struct EventId {
  std::uint32_t slot = 0xffff'ffffu;
  std::uint32_t gen = 0;
};

/// Always-on engine instrumentation: a few integer ops per event, read by
/// the observability layer (polaris::obs) after or during a run.
struct EngineStats {
  std::uint64_t scheduled = 0;          ///< events ever enqueued
  std::uint64_t executed = 0;           ///< events run to completion
  std::uint64_t cancelled_skipped = 0;  ///< tombstones reaped at pop
  std::size_t max_queue_depth = 0;      ///< event-queue high watermark
  /// Always 0: no event is boxed.  Kept only because the end-to-end
  /// benchmark still reads it.
  std::uint64_t sbo_misses = 0;
  std::size_t pool_capacity = 0;  ///< event nodes ever allocated
  std::size_t pool_in_use = 0;    ///< nodes currently holding queued events
  std::size_t max_pool_in_use = 0;  ///< pool-occupancy high watermark
};

class Engine {
 public:
  /// The engine's one event kind: a plain function pointer plus a context
  /// pointer, stored directly in the event node.  Scheduling one never
  /// touches the allocator.
  using RawCallback = void (*)(void*);

  Engine();
  /// Destroys every spawned root whose start event is still queued (after
  /// stop() or a rethrown process error), and with it the task it holds.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn(ctx)` at absolute time `t` (must be >= now()).  Events
  /// fire in (time, schedule order); `ctx` must stay valid until the event
  /// fires or is cancelled.
  EventId schedule_raw_at(SimTime t, RawCallback fn, void* ctx);

  /// Schedules `fn(ctx)` at now() + dt.
  EventId schedule_raw_after(SimTime dt, RawCallback fn, void* ctx) {
    return schedule_raw_at(now_ + dt, fn, ctx);
  }

  /// Schedules `h.resume()` at now() + dt: a raw event on the handle's
  /// address through the one shared resume callback.  Every coroutine
  /// wakeup (delay, Trigger, Mailbox, Semaphore, OneShotEvent) takes it.
  EventId schedule_resume_after(SimTime dt, std::coroutine_handle<> h) {
    return schedule_raw_at(now_ + dt, &resume_handle, h.address());
  }

  /// Cancels a pending event in O(1).  Cancelling an already-fired or
  /// already-cancelled event is a no-op (the generation no longer matches).
  void cancel(EventId id) {
    if (id.slot >= pool_.size()) return;
    EventNode& n = pool_[id.slot];
    if (n.gen == id.gen) n.gen |= kTombstone;
  }

  /// Runs until the event queue is empty or stop() is called.  Returns the
  /// number of events executed.  Rethrows the first exception that escaped
  /// a process.
  std::size_t run();

  /// Runs events with time <= `until`.  The clock is advanced to `until`
  /// if the queue drains earlier.  Returns events executed.
  std::size_t run_until(SimTime until);

  /// Requests run() to return after the current event completes.
  void stop() { stopped_ = true; }

  /// Starts `task` as a detached process.  Its root coroutine starts on a
  /// raw event at now(), so spawn() itself never runs user code.
  void spawn(Task<void> task);

  /// Number of spawned processes that have not yet completed.
  std::size_t live_processes() const { return live_processes_; }

  /// Total events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Scheduling/queue statistics since construction.
  EngineStats stats() const {
    EngineStats s = stats_;
    s.executed = executed_;
    s.pool_capacity = pool_.size();
    s.pool_in_use = pool_.size() - free_.size();
    return s;
  }

  /// Current event-queue depth (includes cancelled-but-not-reaped events).
  std::size_t queue_depth() const { return wheel_count_ + heap_.size(); }

  /// True when no events remain queued.  A queue holding only cancelled
  /// events reports non-empty until run() reaps past them.
  bool empty() const { return wheel_count_ == 0 && heap_.empty(); }

  /// Returned by next_event_time() when no events remain queued.
  static constexpr SimTime kNoEventTime = std::numeric_limits<SimTime>::max();

  /// Timestamp of the earliest queued event, kNoEventTime when drained.
  /// A pending cancelled event may make this a (still correct) lower bound
  /// rather than the exact next live time; exact whenever cancel() is
  /// unused.  This is the conservative-sync hook for parallel DES: a shard
  /// reports min(next_event_time, earliest outbound handoff) and the
  /// coordinator advances the global window to the minimum across shards.
  SimTime next_event_time() const;

  // -- internal (used by task.hpp/sync.hpp) --------------------------------
  void note_process_started() { ++live_processes_; }
  void note_process_finished() { --live_processes_; }
  void report_error(std::exception_ptr e) {
    if (!error_) error_ = std::move(e);
    stopped_ = true;
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffff'ffffu;
  /// Generation bit marking a cancelled (tombstoned) node.  Live nodes and
  /// the EventIds handed out never carry it, so setting it also makes
  /// every later cancel of the same id a mismatch (idempotent).
  static constexpr std::uint32_t kTombstone = 0x8000'0000u;
  /// Wheel geometry: one bucket per simulated tick, span 8192 ticks.
  static constexpr std::size_t kWheelBits = 13;
  static constexpr std::size_t kWheelSpan = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSpan - 1;
  static constexpr std::size_t kWheelWords = kWheelSpan / 64;
  static constexpr std::size_t kSummaryWords = kWheelWords / 64;

  /// Pooled event state.  The (t, seq) key is duplicated into the heap
  /// entry so sift compares never chase the pool pointer; `next` chains
  /// wheel-bucket FIFOs; `gen` carries the tombstone bit.
  struct EventNode {
    SimTime t = 0;
    std::uint64_t seq = 0;
    RawCallback fn = nullptr;
    void* ctx = nullptr;
    std::uint32_t next = kNilSlot;
    std::uint32_t gen = 0;
  };
  static_assert(sizeof(EventNode) == 40, "event nodes stay 40 bytes");
  /// One heap slot: the full ordering key plus the owning pool slot.
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Intrusive FIFO of pool slots holding one bucket's events.
  struct Bucket {
    std::uint32_t head = kNilSlot;
    std::uint32_t tail = kNilSlot;
  };

 public:
  /// Queue memory per pending event at most: its pool node plus a
  /// far-future heap entry (near events sit in the fixed wheel instead).
  static constexpr std::size_t kQueuedEventBytes =
      sizeof(EventNode) + sizeof(HeapEntry);

 private:
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  void heap_push(HeapEntry e);
  void heap_pop_top();

  static void resume_handle(void* address) {
    std::coroutine_handle<>::from_address(address).resume();
  }
  /// Starts a spawned root.  Its own callback (not resume_handle) marks
  /// the roots ~Engine must destroy if they never start.
  static void start_root(void* address) { resume_handle(address); }

  static bool tombstoned(const EventNode& n) {
    return (n.gen & kTombstone) != 0;
  }

  std::uint32_t acquire_node();
  void release_node(std::uint32_t slot);
  void reap(std::uint32_t slot);  ///< Returns a tombstoned node to the pool.
  void reap_cancelled_top();  ///< Reaps tombstones sitting at the heap top.

  void set_bucket_bit(std::size_t b);
  void clear_bucket_bit(std::size_t b);
  /// Index of the next occupied bucket at/after position `from`, wrapping.
  /// Precondition: wheel_count_ > 0.
  std::size_t next_bucket(std::size_t from) const;
  void unlink_bucket_head(std::size_t b);

  bool step();  ///< Executes one event; returns false when drained/stopped.
  bool step_bounded(SimTime until);  ///< step(), but not past `until`.
  void maybe_rethrow();

  std::vector<HeapEntry> heap_;  ///< 4-ary implicit min-heap on (t, seq)
  std::vector<EventNode> pool_;
  std::vector<std::uint32_t> free_;  ///< pool slots ready for reuse
  std::vector<Bucket> buckets_;      ///< kWheelSpan one-tick FIFOs
  std::uint64_t bitmap_[kWheelWords] = {};   ///< bit per occupied bucket
  std::uint64_t summary_[kSummaryWords] = {};  ///< bit per nonzero word
  std::size_t wheel_count_ = 0;  ///< events currently in the wheel
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  EngineStats stats_;  ///< executed/pool fields derived in stats()
  std::size_t live_processes_ = 0;
  bool stopped_ = false;
  std::exception_ptr error_;
};

}  // namespace polaris::des
