#include "polaris/obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <sstream>

#include "polaris/support/check.hpp"
#include "polaris/support/hash.hpp"
#include "polaris/support/json_escape.hpp"

namespace polaris::obs {

namespace {

std::uint64_t round_up_pow2(std::uint64_t v) {
  if (v <= 1) return 1;
  return std::bit_ceil(v);
}

// The growing tracer's starting ring capacity: small, since most tracks stay
// short.
constexpr std::size_t kGrowingRingEvents = 64;

// SpanId encoding: track | open slot.
std::size_t encode_span(TrackId track, std::uint32_t slot) {
  return (static_cast<std::size_t>(track) << 32) | slot;
}

/// trace_hash's seed: the 64-bit FNV offset basis 14695981039346656037
/// with its last digit dropped, as first written.  Every pinned trace hash
/// was computed from it, so it stays.
constexpr std::uint64_t kTraceHashSeed = 1469598103934665603ull;

/// True when `a` was recorded before `b` on the same track; wrap-safe for
/// events fewer than 2^31 record calls apart.
bool recorded_before(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

}  // namespace

namespace detail {

TrackRing::TrackRing(const RingOptions& opts, bool growable)
    : growable(growable) {
  buffers.push_back(std::make_unique<RingBuffer>(
      static_cast<std::size_t>(round_up_pow2(opts.ring_capacity))));
  buf.store(buffers.back().get(), std::memory_order_relaxed);
  open.resize(opts.open_span_slots);
  free_slots.reserve(opts.open_span_slots);
  for (std::uint32_t s = opts.open_span_slots; s > 0; --s) {
    free_slots.push_back(s - 1);
  }
}

RingBuffer* TrackRing::grow(std::uint64_t h) {
  const RingBuffer& old = *buffers.back();
  auto bigger = std::make_unique<RingBuffer>(2 * (old.mask + 1));
  // Entries below the drainer's current tail may be copied needlessly;
  // every entry it has yet to read is copied.
  for (std::uint64_t i = tail.load(std::memory_order_acquire); i != h; ++i) {
    bigger->slots[static_cast<std::size_t>(i) & bigger->mask] =
        old.slots[static_cast<std::size_t>(i) & old.mask];
  }
  RingBuffer* published = bigger.get();
  buffers.push_back(std::move(bigger));
  buf.store(published, std::memory_order_release);
  return published;
}

int LaneAllocator::assign(const TraceEvent& ev) {
  if (ev.kind != EventKind::kSpan) return 0;
  if (open_ends_.size() <= ev.track) open_ends_.resize(ev.track + 1);
  auto& track_lanes = open_ends_[ev.track];
  std::size_t lane = 0;
  for (; lane < track_lanes.size(); ++lane) {
    auto& open = track_lanes[lane];
    while (!open.empty() && open.back() <= ev.start_ns) open.pop_back();
    if (open.empty() || ev.end_ns() <= open.back()) break;
  }
  if (lane == track_lanes.size()) track_lanes.emplace_back();
  track_lanes[lane].push_back(ev.end_ns());
  return static_cast<int>(lane);
}

}  // namespace detail

Tracer::Tracer(const ClockSource* clock, const RingOptions* opts)
    : clock_(clock),
      ring_opts_(opts ? *opts
                      : RingOptions{.ring_capacity = kGrowingRingEvents,
                                    .sample_every = 1,
                                    .open_span_slots = 0,
                                    .max_tracks = kGrowingMaxTracks}),
      growable_(opts == nullptr) {
  POLARIS_CHECK(ring_opts_.max_tracks > 0);
  sample_mask_ = round_up_pow2(ring_opts_.sample_every) - 1;
  hot_ = std::make_unique<detail::HotCounters[]>(ring_opts_.max_tracks);
  ring_ptrs_ = std::make_unique<detail::TrackRing*[]>(ring_opts_.max_tracks);
}

Tracer::~Tracer() = default;

TrackId Tracer::add_track(std::string process, std::string name) {
  const std::lock_guard<std::mutex> lock(mu_);
  POLARIS_CHECK_MSG(tracks_.size() < ring_opts_.max_tracks,
                    "RingOptions::max_tracks exceeded");
  tracks_.push_back(Track{std::move(process), std::move(name)});
  const auto id = static_cast<TrackId>(tracks_.size() - 1);
  ring_ptrs_[id] = &rings_.emplace_back(ring_opts_, growable_);
  ring_count_.store(id + std::size_t{1}, std::memory_order_release);
  return id;
}

NameId Tracer::intern(std::string_view s) {
  if (s.empty()) return kNoName;
  const std::lock_guard<std::mutex> lock(intern_mu_);
  if (auto it = name_ids_.find(std::string(s)); it != name_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(s);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::string Tracer::name_of(NameId id) const {
  const std::lock_guard<std::mutex> lock(intern_mu_);
  POLARIS_CHECK(id < names_.size());
  return names_[id];
}

// ------------------------------------------------------------ record paths
//
// The sampling gate and ring push live inline in the header; what remains
// here is the sampled tail of begin/end_span (slot pool + clock read).

SpanId Tracer::begin_span_sampled(TrackId track, std::uint32_t seq,
                                  NameId name, NameId category) {
  detail::TrackRing& r = ring(track);
  const std::uint32_t slot = r.claim_slot();
  if (slot == detail::TrackRing::kNoSlot) {
    detail::bump(r.dropped_no_slot);
    return SpanId{};
  }
  r.open[slot] = {now_ns(), name, category, seq, /*live=*/true};
  return SpanId{encode_span(track, slot)};
}

void Tracer::end_span_sampled(SpanId id) {
  const auto track = static_cast<TrackId>(id.index >> 32);
  const auto slot = static_cast<std::uint32_t>(id.index & 0xffffffffu);
  detail::TrackRing& r = ring(track);
  POLARIS_CHECK(slot < r.open.size() && r.open[slot].live);
  const detail::TrackRing::OpenSpan o = r.open[slot];
  r.release_slot(slot);
  const std::int64_t dur = std::max<std::int64_t>(now_ns() - o.start_ns, 0);
  detail::bump(hot(track).span_ns_total, static_cast<std::uint64_t>(dur));
  r.push({o.start_ns, dur, o.name, o.category, EventKind::kSpan, o.seq});
}

// ----------------------------------------------------------------- readers

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  const std::size_t rings = ring_count_.load(std::memory_order_acquire);
  for (std::size_t t = 0; t < rings; ++t) {
    const detail::TrackRing& r = *ring_ptrs_[t];
    n += static_cast<std::size_t>(r.head.load(std::memory_order_acquire) -
                                  r.tail.load(std::memory_order_relaxed));
    n += r.open.size() - r.free_slots.size();
  }
  return n;
}

std::size_t Tracer::track_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tracks_.size();
}

TraceEvent Tracer::decode(TrackId track,
                          const detail::CompactEvent& ev) const {
  TraceEvent out;
  out.track = track;
  out.kind = ev.kind;
  out.start_ns = ev.start_ns;
  if (ev.kind == EventKind::kCounter) {
    out.dur_ns = 0;
    out.value = std::bit_cast<double>(static_cast<std::uint64_t>(ev.aux));
  } else {
    out.dur_ns = ev.kind == EventKind::kSpan ? ev.aux : 0;
  }
  out.seq = ev.seq;
  out.name = name_of(ev.name);
  out.category = name_of(ev.category);
  return out;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t rings = ring_count_.load(std::memory_order_acquire);
  const std::int64_t now = now_ns();
  for (std::size_t t = 0; t < rings; ++t) {
    const auto track = static_cast<TrackId>(t);
    const detail::TrackRing& r = *ring_ptrs_[t];
    const std::size_t first = out.size();
    r.read([&](const detail::CompactEvent& ev) {
      out.push_back(decode(track, ev));
    });
    for (const detail::TrackRing::OpenSpan& o : r.open) {
      if (!o.live) continue;
      out.push_back(decode(
          track, {o.start_ns, std::max<std::int64_t>(now - o.start_ns, 0),
                  o.name, o.category, EventKind::kSpan, o.seq}));
    }
    // Rings hold begin/end spans in end order; report them where they
    // began.
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(first),
                     out.end(), [](const TraceEvent& a, const TraceEvent& b) {
                       return recorded_before(a.seq, b.seq);
                     });
  }
  return out;
}

std::vector<Tracer::Track> Tracer::tracks() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tracks_;
}

Tracer::Stats Tracer::stats() const {
  Stats s;
  s.track_count = track_count();
  {
    const std::lock_guard<std::mutex> lock(intern_mu_);
    s.interned_names = names_.size();
  }
  s.drained_events = drained_.load(std::memory_order_relaxed);
  const std::size_t rings = ring_count_.load(std::memory_order_acquire);
  for (std::size_t t = 0; t < rings; ++t) {
    const detail::TrackRing& r = *ring_ptrs_[t];
    const detail::HotCounters& h = hot(static_cast<TrackId>(t));
    s.spans_total += h.spans_total.load(std::memory_order_relaxed);
    s.instants_total += h.instants_total.load(std::memory_order_relaxed);
    s.counters_total += h.counters_total.load(std::memory_order_relaxed);
    s.span_ns_total += h.span_ns_total.load(std::memory_order_relaxed);
    s.sampled_events += r.sampled_events.load(std::memory_order_relaxed);
    s.dropped_ring_full +=
        r.dropped_ring_full.load(std::memory_order_relaxed);
    s.dropped_no_slot += r.dropped_no_slot.load(std::memory_order_relaxed);
    s.ring_capacity_events += r.buf.load(std::memory_order_acquire)->mask + 1;
  }
  return s;
}

// ------------------------------------------------------------- JSON export

namespace {

/// Microsecond timestamp with nanosecond precision kept as a fraction.
std::string format_us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000 < 0 ? -(ns % 1000)
                                                     : ns % 1000));
  return buf;
}

void write_metadata(std::ostream& os, const char* what, int pid, int tid,
                    const std::string& value, int sort_index, bool* first) {
  std::string name;
  support::append_json_escaped(name, value);
  if (!*first) os << ",\n";
  *first = false;
  os << R"({"ph":"M","pid":)" << pid;
  if (tid >= 0) os << R"(,"tid":)" << tid;
  os << R"(,"name":")" << what << R"(","args":{"name":")" << name
     << R"("}})";
  if (sort_index >= 0) {
    os << ",\n"
       << R"({"ph":"M","pid":)" << pid;
    if (tid >= 0) os << R"(,"tid":)" << tid;
    os << R"(,"name":")" << (tid >= 0 ? "thread_sort_index"
                                      : "process_sort_index")
       << R"(","args":{"sort_index":)" << sort_index << "}}";
  }
}

void write_event(std::ostream& os, const TraceEvent& ev, int pid, int tid,
                 bool* first) {
  std::string name, cat;
  support::append_json_escaped(name, ev.name);
  support::append_json_escaped(
      cat, ev.category.empty() ? std::string("polaris") : ev.category);
  if (!*first) os << ",\n";
  *first = false;
  switch (ev.kind) {
    case EventKind::kSpan:
      os << R"({"ph":"X","pid":)" << pid << R"(,"tid":)" << tid
         << R"(,"ts":)" << format_us(ev.start_ns) << R"(,"dur":)"
         << format_us(ev.dur_ns) << R"(,"name":")" << name
         << R"(","cat":")" << cat << R"("})";
      break;
    case EventKind::kInstant:
      os << R"({"ph":"i","pid":)" << pid << R"(,"tid":)" << tid
         << R"(,"ts":)" << format_us(ev.start_ns) << R"(,"s":"t","name":")"
         << name << R"(","cat":")" << cat << R"("})";
      break;
    case EventKind::kCounter:
      os << R"({"ph":"C","pid":)" << pid << R"(,"tid":)" << tid
         << R"(,"ts":)" << format_us(ev.start_ns) << R"(,"name":")" << name
         << R"(","args":{"value":)" << ev.value << "}}";
      break;
  }
}

constexpr int kMaxLanesPerTrack = 64;

/// Exported tid of a (track, lane): lanes of one track are adjacent.
int tid_of(TrackId track, int lane) {
  return static_cast<int>(track) * kMaxLanesPerTrack +
         std::min(lane, kMaxLanesPerTrack - 1);
}

/// Lane 0 keeps the track's name; extra lanes get a ~n suffix.
void write_lane_metadata(std::ostream& os, int pid, TrackId track,
                         const std::string& track_name, int lane,
                         bool* first) {
  std::string name = track_name;
  if (lane > 0) name += " ~" + std::to_string(lane);
  write_metadata(os, "thread_name", pid, tid_of(track, lane), name,
                 tid_of(track, lane), first);
}

/// Export order shared by both exporters: by track, then start time,
/// longer spans first so parents precede children, then record order so
/// nested spans sharing start and duration also come out parent-first.
bool event_order(const TraceEvent& a, const TraceEvent& b) {
  if (a.track != b.track) return a.track < b.track;
  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
  if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
  return recorded_before(a.seq, b.seq);
}

}  // namespace

void Tracer::write_json(std::ostream& os) const {
  std::vector<TraceEvent> events = snapshot();
  std::stable_sort(events.begin(), events.end(), event_order);
  const std::vector<Track> tracks = this->tracks();

  // Process name -> pid, in first-registration order.
  std::map<std::string, int> pids;
  std::vector<std::string> pid_names;
  std::vector<int> track_pid(tracks.size(), 0);
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    auto [it, inserted] =
        pids.emplace(tracks[i].process, static_cast<int>(pids.size()));
    if (inserted) pid_names.push_back(tracks[i].process);
    track_pid[i] = it->second;
  }

  detail::LaneAllocator lanes;
  std::vector<int> event_lane(events.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    event_lane[i] = lanes.assign(events[i]);
  }

  // Metadata first — every process, then every lane of every track — so
  // the viewer has all names before the first event.
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (int pid = 0; pid < static_cast<int>(pid_names.size()); ++pid) {
    write_metadata(os, "process_name", pid, -1, pid_names[static_cast<
                       std::size_t>(pid)], pid, &first);
  }
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    const auto track = static_cast<TrackId>(t);
    const std::size_t n_lanes = std::max<std::size_t>(lanes.lanes(track), 1);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      write_lane_metadata(os, track_pid[t], track, tracks[t].name,
                          static_cast<int>(l), &first);
    }
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    write_event(os, ev, track_pid[ev.track], tid_of(ev.track, event_lane[i]),
                &first);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

// ------------------------------------------------------- streaming export

TraceStreamWriter::TraceStreamWriter(Tracer& tracer, std::ostream& os)
    : tracer_(&tracer), os_(&os) {
  *os_ << "{\"traceEvents\":[\n";
}

TraceStreamWriter::~TraceStreamWriter() { finish(); }

int TraceStreamWriter::pid_of_track(TrackId track) {
  if (track < track_pid_.size() && track_pid_[track] >= 0) {
    return track_pid_[track];
  }
  const std::vector<Tracer::Track> tracks = tracer_->tracks();
  POLARIS_CHECK(track < tracks.size());
  if (track_pid_.size() < tracks.size()) track_pid_.resize(tracks.size(), -1);
  auto [it, inserted] = pids_.emplace(tracks[track].process,
                                      static_cast<int>(pids_.size()));
  if (inserted) {
    write_metadata(*os_, "process_name", it->second, -1,
                   tracks[track].process, it->second, &first_);
  }
  track_pid_[track] = it->second;
  return it->second;
}

void TraceStreamWriter::emit_event(const TraceEvent& ev) {
  const int lane = lanes_.assign(ev);
  if (announced_lanes_.size() <= ev.track) {
    announced_lanes_.resize(ev.track + 1, 0);
  }
  // Lanes open one at a time, so a new lane is always the next index.
  for (std::size_t& n = announced_lanes_[ev.track];
       n <= static_cast<std::size_t>(lane); ++n) {
    const int pid = pid_of_track(ev.track);
    write_lane_metadata(*os_, pid, ev.track, tracer_->tracks()[ev.track].name,
                        static_cast<int>(n), &first_);
  }
  write_event(*os_, ev, track_pid_[ev.track], tid_of(ev.track, lane),
              &first_);
  ++events_written_;
}

std::size_t TraceStreamWriter::drain() {
  POLARIS_CHECK_MSG(!finished_, "drain after finish");
  batch_.clear();
  const std::size_t rings =
      tracer_->ring_count_.load(std::memory_order_acquire);
  std::uint64_t consumed = 0;
  for (std::size_t t = 0; t < rings; ++t) {
    detail::TrackRing& r = *tracer_->ring_ptrs_[t];
    const std::uint64_t lo = r.tail.load(std::memory_order_relaxed);
    const std::uint64_t hi = r.read([&](const detail::CompactEvent& ev) {
      batch_.push_back(tracer_->decode(static_cast<TrackId>(t), ev));
    });
    consumed += hi - lo;
    r.tail.store(hi, std::memory_order_release);
  }
  tracer_->drained_.fetch_add(consumed, std::memory_order_relaxed);
  // Within a batch the write_json order is reproduced exactly; across
  // batches events stay grouped per drain (a long-lived span can land in
  // an overflow lane of an earlier-drained child — cosmetic only).
  std::stable_sort(batch_.begin(), batch_.end(), event_order);
  const std::size_t n = batch_.size();
  for (const TraceEvent& ev : batch_) emit_event(ev);
  batch_.clear();
  return n;
}

void TraceStreamWriter::finish() {
  if (finished_) return;
  drain();
  finished_ = true;
  *os_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::uint64_t trace_hash(const Tracer& tracer) {
  std::ostringstream os;
  tracer.write_json(os);
  return support::fnv1a(os.str(), kTraceHashSeed);
}

}  // namespace polaris::obs
