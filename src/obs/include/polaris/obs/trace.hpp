// Scoped-span tracer with Chrome trace-event JSON export.
//
// A Tracer collects spans (operations with duration), instants (point
// events) and counter samples on named tracks, stamped by a ClockSource
// (simulated or wall time).  write_json() emits the Chrome trace-event
// format, loadable in chrome://tracing or ui.perfetto.dev: tracks are
// grouped into processes ("ranks", "links", ...), and spans that overlap
// on one track — background isends, concurrent sendrecv halves — are
// packed into extra lanes so every exported thread timeline is properly
// nested.
//
// Instrumented code holds a `Tracer*` that is null until an observer
// attaches; every hook is a branch on that pointer, so an untraced run
// pays nothing else, and swapping the pointer to null is the only way to
// pause recording.
//
// Storage: each track owns a single-producer/single-consumer ring of
// 32-byte compact events over interned name IDs.  A record call is a
// deterministic 1-in-N sampling branch on an always-on per-track counter
// and, if sampled, a clock read plus one ring slot write — no lock, no
// string.  The always-on counters (span count, span nanoseconds) stay
// exact whatever the sampling rate.  Two capacity policies share that one
// path:
//
//  * Tracer(clock) / Tracer(): every event is kept (sample_every = 1), a
//    full ring doubles, and the open-span slot pool grows.  The exported
//    JSON is byte-stable — the golden-trace suite pins it.
//  * Tracer(clock, RingOptions): bounded, preallocated rings that drop the
//    newest events when full (counted per track) and never allocate while
//    recording; TraceStreamWriter drains them incrementally so arbitrarily
//    long runs export in bounded memory.
//
// Concurrency contract: each track is recorded by at most one thread at a
// time (ranks, shards and links already have per-owner tracks); a
// TraceStreamWriter may drain concurrently with all producers.
// snapshot(), write_json() and event_count() also read the open-span
// slots, so call them at a quiescent point.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "polaris/obs/clock.hpp"
#include "polaris/support/check.hpp"

namespace polaris::obs {

using TrackId = std::uint32_t;

/// Interned event-name handle.  Id 0 is always the empty string.
using NameId = std::uint32_t;
inline constexpr NameId kNoName = 0;

enum class EventKind : std::uint8_t {
  kSpan,     ///< has start and duration
  kInstant,  ///< point in time
  kCounter,  ///< sampled value
};

struct TraceEvent {
  TrackId track = 0;
  EventKind kind = EventKind::kSpan;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;  ///< spans only
  double value = 0.0;       ///< counters only
  /// Per-track record order (a begin/end span counts where it began);
  /// breaks export ties so nested spans sharing start and duration come
  /// out parent-first.
  std::uint32_t seq = 0;
  std::string name;
  std::string category;

  std::int64_t end_ns() const { return start_ns + dur_ns; }
};

/// Handle for an open span: a (track, open-slot) pair.  An invalid id
/// (unsampled span, bounded slot pool exhausted) makes end_span a no-op.
struct SpanId {
  std::size_t index = std::numeric_limits<std::size_t>::max();
  bool valid() const {
    return index != std::numeric_limits<std::size_t>::max();
  }
};

/// Bounded-memory tracing knobs.  Passing them to the Tracer constructor
/// fixes every capacity up front: the record path then never allocates,
/// and what does not fit is dropped and counted.  (The default tracer
/// keeps everything instead; see the file comment.)
struct RingOptions {
  /// Events retained per track; rounded up to a power of two.  A full ring
  /// drops the newest events (counted per track).
  std::size_t ring_capacity = std::size_t{1} << 14;
  /// Deterministic sampling: the k-th span (resp. instant) on a track is
  /// recorded iff k % sample_every == 0 (rounded up to a power of two).
  /// Counters keep exact totals either way.  1 = record everything.
  std::uint32_t sample_every = 1;
  /// Concurrently-open spans per track (begin/end pairs in flight).
  std::uint32_t open_span_slots = 64;
  /// Upper bound on add_track() calls (contract-checked).  The always-on
  /// per-track counters are preallocated densely up front — several tracks
  /// per cache line — so the sampled-away record path touches one hot line
  /// instead of each track's ring header.
  std::size_t max_tracks = 4096;
};

namespace detail {

/// 32-byte interned event; track is implicit (one ring per track).
struct CompactEvent {
  std::int64_t start_ns = 0;
  std::int64_t aux = 0;  ///< span: dur_ns; counter: bit pattern of value
  NameId name = kNoName;
  NameId category = kNoName;
  EventKind kind = EventKind::kSpan;
  std::uint32_t seq = 0;  ///< TraceEvent::seq, in the padding after kind
};
static_assert(sizeof(CompactEvent) == 32);

/// Single-writer counter bump: the atomic is for the exporter's benefit,
/// but only the track's owner thread stores it, so this is a plain
/// load/add/store — one add on x86 instead of a serializing lock-prefixed
/// fetch_add.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t d = 1) {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

/// Always-on per-track totals, preallocated as one dense array (two tracks
/// per cache line) so the sampled-away record path — which touches nothing
/// but these — stays cache-resident even with dozens of live tracks.  The
/// per-kind totals double as the sampling phase, and their sum as the
/// record sequence.  Single-writer per track (the concurrency contract);
/// 32-byte aligned so an entry never straddles a line.
struct alignas(32) HotCounters {
  std::atomic<std::uint64_t> spans_total{0};
  std::atomic<std::uint64_t> instants_total{0};
  std::atomic<std::uint64_t> counters_total{0};
  // Busy nanoseconds: exact for complete_span (duration known before the
  // sampling gate); begin/end spans contribute only when sampled.
  std::atomic<std::uint64_t> span_ns_total{0};

  /// Record calls so far on this track, truncated to the event's seq.
  std::uint32_t seq() const {
    return static_cast<std::uint32_t>(
        spans_total.load(std::memory_order_relaxed) +
        instants_total.load(std::memory_order_relaxed) +
        counters_total.load(std::memory_order_relaxed));
  }
};

/// One power-of-two slot array.  A growing ring publishes a bigger one and
/// keeps the old alive, because a concurrent drainer may still read it.
struct RingBuffer {
  explicit RingBuffer(std::size_t capacity)
      : slots(std::make_unique<CompactEvent[]>(capacity)),
        mask(capacity - 1) {}
  std::unique_ptr<CompactEvent[]> slots;
  std::size_t mask;
};

/// Single-producer/single-consumer event ring plus the producer's
/// open-span slot pool and drop accounting for one track.  Only reached on
/// the sampled (1-in-N) path — the always-on totals live in the dense
/// HotCounters array instead, so a sampled-away event never pulls a ring
/// header into cache.
struct TrackRing {
  TrackRing(const RingOptions& opts, bool growable);

  // Producer side (the track's owner thread).
  bool push(const CompactEvent& ev) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    RingBuffer* b = buf.load(std::memory_order_relaxed);
    if (h - tail.load(std::memory_order_acquire) > b->mask) {
      if (!growable) {
        // Drop-newest keeps the ring a coherent prefix of each track's
        // history and never blocks the producer.
        bump(dropped_ring_full);
        return false;
      }
      b = grow(h);
    }
    b->slots[static_cast<std::size_t>(h) & b->mask] = ev;
    head.store(h + 1, std::memory_order_release);
    bump(sampled_events);
    return true;
  }

  /// Doubles the full buffer: copies the live entries, publishes the copy
  /// (before the head store that exposes the next event) and retires the
  /// old one until the tracer dies.
  RingBuffer* grow(std::uint64_t h);

  std::uint32_t claim_slot() {
    if (free_slots.empty()) {
      if (!growable) return kNoSlot;
      open.emplace_back();
      return static_cast<std::uint32_t>(open.size() - 1);
    }
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    open[slot].live = false;
    free_slots.push_back(slot);
  }

  /// Calls fn on every event in [tail, head) and returns head; the caller
  /// decides whether to consume by storing it to tail.
  template <typename Fn>
  std::uint64_t read(Fn&& fn) const {
    std::uint64_t lo = tail.load(std::memory_order_relaxed);
    const std::uint64_t hi = head.load(std::memory_order_acquire);
    const RingBuffer* b = buf.load(std::memory_order_acquire);
    for (; lo != hi; ++lo) {
      fn(b->slots[static_cast<std::size_t>(lo) & b->mask]);
    }
    return hi;
  }

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct OpenSpan {
    std::int64_t start_ns = 0;
    NameId name = kNoName;
    NameId category = kNoName;
    std::uint32_t seq = 0;
    bool live = false;
  };

  const bool growable;
  std::atomic<RingBuffer*> buf{nullptr};
  // Producer line: the head index, slot pool and sampled/drop accounting,
  // padded away from tail so the consumer's tail stores never invalidate
  // it.  Single-writer relaxed atomics (see bump()).
  alignas(64) std::atomic<std::uint64_t> head{0};
  std::vector<OpenSpan> open;
  std::vector<std::uint32_t> free_slots;
  std::atomic<std::uint64_t> sampled_events{0};
  std::atomic<std::uint64_t> dropped_ring_full{0};
  std::atomic<std::uint64_t> dropped_no_slot{0};
  std::vector<std::unique_ptr<RingBuffer>> buffers;  // current + retired
  // Consumer-owned: advanced by the drainer.
  alignas(64) std::atomic<std::uint64_t> tail{0};
};

/// Export-time lane packing, shared by write_json and TraceStreamWriter:
/// spans that only nest share lane 0; a span that partially overlaps every
/// open lane of its track gets a fresh lane.  Each (track, lane) pair
/// becomes one exported tid, so every exported timeline is properly nested
/// and Chrome renders it without warnings.
class LaneAllocator {
 public:
  /// Lane for `ev` (0 for instants and counters).  Feed events in export
  /// order: by track, then start time, outermost first.
  int assign(const TraceEvent& ev);
  /// Lanes opened on `track` so far.
  std::size_t lanes(TrackId track) const {
    return track < open_ends_.size() ? open_ends_[track].size() : 0;
  }

 private:
  // [track][lane]: stack of enclosing span ends.
  std::vector<std::vector<std::vector<std::int64_t>>> open_ends_;
};

}  // namespace detail

class Tracer {
 public:
  /// Tracer stamped by `clock` (which must outlive it) that keeps every
  /// event: rings grow, nothing is sampled away or dropped.  Registers up
  /// to 65,536 tracks.
  explicit Tracer(const ClockSource& clock) : Tracer(&clock, nullptr) {}

  /// Bounded tracer: preallocated per-track rings, sampling, drop-newest.
  Tracer(const ClockSource& clock, const RingOptions& opts)
      : Tracer(&clock, &opts) {}

  /// Clockless tracer: only complete_span/instant_at with explicit
  /// timestamps are meaningful (e.g. post-hoc Gantt export).
  Tracer() : Tracer(nullptr, nullptr) {}

  /// Clockless bounded tracer (explicit-timestamp record calls only).
  explicit Tracer(const RingOptions& opts) : Tracer(nullptr, &opts) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// Registers a track.  `process` groups tracks into one Chrome process
  /// row ("ranks", "links", "jobs"); `name` labels the thread timeline.
  TrackId add_track(std::string process, std::string name);

  /// Interns a name, returning a stable id usable on any record call.
  /// Takes a mutex: call at attach time (or for cold dynamic names), cache
  /// the id on the hot path.  The same string always yields the same id.
  NameId intern(std::string_view s);

  /// Resolves an interned id (registry lookup under the intern mutex).
  std::string name_of(NameId id) const;

  std::int64_t now_ns() const { return clock_ ? clock_->now_ns() : 0; }

  // Every record call comes in two forms: by interned NameId (the hot
  // path) and by string, which interns and forwards.

  /// Opens a span at the current clock time.  end_span() closes it;
  /// snapshot() and write_json() report a still-open span closed at their
  /// own clock time.
  SpanId begin_span(TrackId track, NameId name, NameId category = kNoName) {
    detail::HotCounters& h = hot(track);
    // Sampled-away spans are counted and nothing else: no clock read, no
    // slot claim, no ring lookup; the invalid id makes end_span a no-op.
    if (!tick(h.spans_total)) return SpanId{};
    return begin_span_sampled(track, h.seq(), name, category);
  }
  SpanId begin_span(TrackId track, std::string_view name,
                    std::string_view category = {}) {
    return begin_span(track, intern(name), intern(category));
  }
  void end_span(SpanId id) {
    if (id.valid()) end_span_sampled(id);
  }

  /// Records an already-finished span with explicit timestamps.
  void complete_span(TrackId track, NameId name, NameId category,
                     std::int64_t start_ns, std::int64_t dur_ns) {
    POLARIS_DCHECK(dur_ns >= 0);
    detail::HotCounters& h = hot(track);
    // Duration is already known here, so the busy-ns counter stays exact
    // for every completed span even when the event itself is sampled away.
    detail::bump(h.span_ns_total, static_cast<std::uint64_t>(dur_ns));
    if (!tick(h.spans_total)) return;
    ring(track).push(
        {start_ns, dur_ns, name, category, EventKind::kSpan, h.seq()});
  }
  void complete_span(TrackId track, std::string_view name,
                     std::string_view category, std::int64_t start_ns,
                     std::int64_t dur_ns) {
    complete_span(track, intern(name), intern(category), start_ns, dur_ns);
  }

  /// Point event at the current clock time.
  void instant(TrackId track, NameId name, NameId category = kNoName) {
    detail::HotCounters& h = hot(track);
    if (!tick(h.instants_total)) return;
    // Clock read and ring lookup only behind the sampling gate.
    ring(track).push({now_ns(), 0, name, category, EventKind::kInstant,
                      h.seq()});
  }
  void instant(TrackId track, std::string_view name,
               std::string_view category = {}) {
    instant(track, intern(name), intern(category));
  }

  /// Point event at an explicit time.
  void instant_at(TrackId track, NameId name, NameId category,
                  std::int64_t at_ns) {
    detail::HotCounters& h = hot(track);
    if (!tick(h.instants_total)) return;
    ring(track).push({at_ns, 0, name, category, EventKind::kInstant,
                      h.seq()});
  }
  void instant_at(TrackId track, std::string_view name,
                  std::string_view category, std::int64_t at_ns) {
    instant_at(track, intern(name), intern(category), at_ns);
  }

  /// Samples a counter series (rendered as a stacked area in the viewer).
  void counter(TrackId track, NameId name, double value) {
    detail::HotCounters& h = hot(track);
    detail::bump(h.counters_total);
    ring(track).push({
        now_ns(),
        static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value)),
        name, kNoName, EventKind::kCounter, h.seq()});
  }
  void counter(TrackId track, std::string_view name, double value) {
    counter(track, intern(name), value);
  }

  /// Events snapshot() would return: undrained ring entries plus open
  /// spans.
  std::size_t event_count() const;
  std::size_t track_count() const;

  /// Decodes the rings without consuming them (events already drained by
  /// a TraceStreamWriter are gone), each track's events in record order.
  /// Open spans are included, closed at the current clock time so analysis
  /// never sees negative durations.
  std::vector<TraceEvent> snapshot() const;

  struct Track {
    std::string process;
    std::string name;
  };
  std::vector<Track> tracks() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}) of snapshot():
  /// process and thread metadata first, then one event per line, sorted by
  /// start time within each exported lane.  Repeatable and non-consuming;
  /// to export more events than bounded rings hold, attach a
  /// TraceStreamWriter and drain as the run progresses.
  void write_json(std::ostream& os) const;

  /// Aggregate record-path accounting.  Used by tests and the BENCH_OBS
  /// steady-state allocation check: interned_names and
  /// ring_capacity_events must not move between warmup and steady state.
  struct Stats {
    std::uint64_t spans_total = 0;
    std::uint64_t instants_total = 0;
    std::uint64_t counters_total = 0;
    std::uint64_t span_ns_total = 0;
    std::uint64_t sampled_events = 0;
    std::uint64_t dropped_ring_full = 0;
    std::uint64_t dropped_no_slot = 0;
    std::uint64_t drained_events = 0;
    std::size_t interned_names = 0;
    std::size_t ring_capacity_events = 0;
    std::size_t track_count = 0;
  };
  Stats stats() const;

 private:
  friend class TraceStreamWriter;

  /// The growing tracer's track limit (its HotCounters array: 2 MiB).
  static constexpr std::size_t kGrowingMaxTracks = std::size_t{1} << 16;

  /// Bounded tracer, or the growing one when `opts` is null.
  Tracer(const ClockSource* clock, const RingOptions* opts);

  SpanId begin_span_sampled(TrackId track, std::uint32_t seq, NameId name,
                            NameId category);
  void end_span_sampled(SpanId id);

  detail::TrackRing& ring(TrackId track) const {
    POLARIS_CHECK(track < ring_count_.load(std::memory_order_acquire));
    return *ring_ptrs_[track];
  }

  /// Dense always-on counters for a track (preallocated for max_tracks at
  /// construction, so the pointer never moves).
  detail::HotCounters& hot(TrackId track) const {
    POLARIS_DCHECK(track < ring_opts_.max_tracks);
    return hot_[track];
  }

  /// Counts one event of a kind and reports whether it is the sampled one
  /// (the 1st, N+1th, ... of that kind on the track).
  bool tick(std::atomic<std::uint64_t>& total) const {
    const std::uint64_t seen = total.load(std::memory_order_relaxed);
    total.store(seen + 1, std::memory_order_relaxed);
    return (seen & sample_mask_) == 0;
  }

  TraceEvent decode(TrackId track, const detail::CompactEvent& ev) const;

  const ClockSource* clock_ = nullptr;
  RingOptions ring_opts_;
  bool growable_ = false;
  // Record-path hot members, grouped: the sampling mask and the dense
  // counter array base are read on every record call.
  std::uint64_t sample_mask_ = 0;
  std::unique_ptr<detail::HotCounters[]> hot_;

  mutable std::mutex mu_;
  std::vector<Track> tracks_;

  mutable std::mutex intern_mu_;
  std::vector<std::string> names_{std::string()};  // names_[0] == ""
  std::unordered_map<std::string, NameId> name_ids_;

  // Address-stable rings plus a lookup array preallocated for max_tracks:
  // add_track fills slot n before publishing ring_count_ = n + 1, so a
  // record call or drainer never takes mu_ and never sees a moving array.
  std::deque<detail::TrackRing> rings_;
  std::unique_ptr<detail::TrackRing*[]> ring_ptrs_;
  std::atomic<std::size_t> ring_count_{0};
  std::atomic<std::uint64_t> drained_{0};
};

/// Streams a tracer's events to Chrome trace JSON in bounded memory:
/// construct (writes the header), call drain() as often as desired while
/// producers are still recording (each call consumes the rings), and
/// finish() once they quiesce.  Only closed spans are exported.
/// Thread/process metadata is emitted inline the first time a track (or
/// overflow lane) appears, so the output is deterministic for
/// deterministic per-track event streams regardless of how record work was
/// spread over threads.
class TraceStreamWriter {
 public:
  TraceStreamWriter(Tracer& tracer, std::ostream& os);
  TraceStreamWriter(const TraceStreamWriter&) = delete;
  TraceStreamWriter& operator=(const TraceStreamWriter&) = delete;
  ~TraceStreamWriter();

  /// Consumes everything currently in the rings; returns events written.
  std::size_t drain();
  /// Final drain plus the JSON footer (idempotent).
  void finish();

  std::size_t events_written() const { return events_written_; }

 private:
  void emit_event(const TraceEvent& ev);
  int pid_of_track(TrackId track);

  Tracer* tracer_;
  std::ostream* os_;
  bool first_ = true;
  bool finished_ = false;
  std::size_t events_written_ = 0;
  std::unordered_map<std::string, int> pids_;
  std::vector<int> track_pid_;  // -1 = not yet announced
  detail::LaneAllocator lanes_;
  std::vector<std::size_t> announced_lanes_;  // per track
  std::vector<TraceEvent> batch_;             // reused scratch
};

/// Byte-wise FNV-1a of the tracer's exported JSON (write_json byte
/// stream), from a fixed seed other than the standard offset basis.  Two
/// runs that produced the same trace hash to the same value on every
/// platform — the cheap "did these runs behave identically?" check the
/// scenario runner's determinism verdicts and the golden-trace tests are
/// built on.
std::uint64_t trace_hash(const Tracer& tracer);

/// RAII span; a null tracer makes every operation a no-op, so call sites
/// need no branches of their own.  Safe to keep across co_await (lives in
/// the coroutine frame).
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, TrackId track, std::string_view name,
             std::string_view category = {})
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin_span(track, name, category);
  }
  ScopedSpan(Tracer* tracer, TrackId track, NameId name,
             NameId category = kNoName)
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin_span(track, name, category);
  }
  ~ScopedSpan() { end(); }

  ScopedSpan(ScopedSpan&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)), id_(other.id_) {}
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      end();
      tracer_ = std::exchange(other.tracer_, nullptr);
      id_ = other.id_;
    }
    return *this;
  }

  /// Closes the span early (idempotent).
  void end() {
    if (tracer_) {
      tracer_->end_span(id_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanId id_;
};

}  // namespace polaris::obs
