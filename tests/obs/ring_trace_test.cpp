// Tracer rings: bounded (RingOptions) and growing (default) capacity,
// interned names, deterministic sampling, streaming export.  The
// multi-threaded cases double as the tsan proof of the SPSC
// producer/drainer contract, including rings that grow under a drainer.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "polaris/obs/clock.hpp"
#include "polaris/obs/trace.hpp"

namespace polaris::obs {
namespace {

RingOptions small_ring(std::size_t capacity, std::uint32_t sample_every = 1) {
  RingOptions opts;
  opts.ring_capacity = capacity;
  opts.sample_every = sample_every;
  return opts;
}

TEST(RingTracer, CompactEventsDecodeWithInternedNames) {
  Tracer tracer(RingOptions{});  // clockless: explicit timestamps only
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId send = tracer.intern("send");
  const NameId p2p = tracer.intern("p2p");
  tracer.complete_span(t, send, p2p, 100, 40);
  tracer.counter(t, tracer.intern("depth"), 3.5);

  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSpan);
  EXPECT_EQ(events[0].start_ns, 100);
  EXPECT_EQ(events[0].dur_ns, 40);
  EXPECT_EQ(events[0].name, "send");
  EXPECT_EQ(events[0].category, "p2p");
  EXPECT_EQ(events[1].kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[1].value, 3.5);
  EXPECT_EQ(events[1].name, "depth");
}

TEST(RingTracer, InternIsIdempotentAndRoundTrips) {
  Tracer tracer(RingOptions{});
  EXPECT_EQ(tracer.intern(""), kNoName);
  const NameId a = tracer.intern("busy");
  EXPECT_EQ(tracer.intern("busy"), a);
  EXPECT_NE(tracer.intern("idle"), a);
  EXPECT_EQ(tracer.name_of(a), "busy");
  EXPECT_EQ(tracer.name_of(kNoName), "");
}

TEST(RingTracer, BeginEndSpanRecordsThroughSlotPool) {
  WallClock clock;
  Tracer tracer(clock, RingOptions{});
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId work = tracer.intern("work");
  const SpanId id = tracer.begin_span(t, work);
  EXPECT_TRUE(id.valid());
  tracer.end_span(id);

  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, 1u);
  EXPECT_EQ(s.sampled_events, 1u);
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_GE(events[0].dur_ns, 0);
}

TEST(RingTracer, OpenSlotExhaustionDropsInsteadOfBlocking) {
  WallClock clock;
  RingOptions opts;
  opts.open_span_slots = 1;
  Tracer tracer(clock, opts);
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId n = tracer.intern("outer");
  const SpanId a = tracer.begin_span(t, n);
  const SpanId b = tracer.begin_span(t, n);  // pool exhausted
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(b.valid());
  tracer.end_span(b);  // invalid id: silent no-op
  tracer.end_span(a);
  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, 2u);
  EXPECT_EQ(s.dropped_no_slot, 1u);
  EXPECT_EQ(tracer.snapshot().size(), 1u);
}

TEST(RingTracer, FullRingDropsNewestAndCountsDrops) {
  Tracer tracer(small_ring(8));
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId tick = tracer.intern("tick");
  for (int i = 0; i < 20; ++i) tracer.instant_at(t, "tick", "", i);
  (void)tick;

  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.instants_total, 20u);
  EXPECT_EQ(s.sampled_events, 8u);
  EXPECT_EQ(s.dropped_ring_full, 12u);
  // Drop-newest: the ring holds a coherent prefix of the track's history.
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(events[i].start_ns, i);
}

TEST(RingTracer, SamplingIsDeterministicOneInN) {
  Tracer tracer(small_ring(1 << 10, /*sample_every=*/4));
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId n = tracer.intern("op");
  for (int i = 0; i < 100; ++i) {
    tracer.complete_span(t, n, kNoName, i * 10, 5);
  }
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(events[i].start_ns, i * 4 * 10);  // every 4th span, from the 1st
  }
  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, 100u);
  EXPECT_EQ(s.sampled_events, 25u);
  // Busy-ns accounting stays exact despite sampling (durations are known
  // at complete_span time).
  EXPECT_EQ(s.span_ns_total, 100u * 5u);
}

TEST(RingTracer, DefaultTracerGrowsInsteadOfDropping) {
  WallClock clock;
  Tracer tracer(clock);
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId n = tracer.intern("op");
  // More events than a default RingOptions ring holds, and more open spans
  // than its slot pool.
  constexpr std::uint64_t kEvents = (std::uint64_t{1} << 14) + 100;
  constexpr std::uint64_t kOpen = 100;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    tracer.complete_span(t, n, kNoName, static_cast<std::int64_t>(i), 1);
  }
  std::vector<SpanId> open;
  for (std::uint64_t i = 0; i < kOpen; ++i) {
    open.push_back(tracer.begin_span(t, n));
    EXPECT_TRUE(open.back().valid());
  }
  for (auto it = open.rbegin(); it != open.rend(); ++it) tracer.end_span(*it);

  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, kEvents + kOpen);
  EXPECT_EQ(s.sampled_events, kEvents + kOpen);
  EXPECT_EQ(s.dropped_ring_full, 0u);
  EXPECT_EQ(s.dropped_no_slot, 0u);
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), kEvents + kOpen);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(events[i].start_ns, static_cast<std::int64_t>(i));
  }
}

TEST(RingTracer, WriteJsonIsRepeatableAndNonConsuming) {
  Tracer tracer(RingOptions{});
  const TrackId t = tracer.add_track("ranks", "rank 0");
  tracer.complete_span(t, tracer.intern("a"), tracer.intern("x"), 0, 10);
  tracer.complete_span(t, tracer.intern("b"), tracer.intern("x"), 20, 10);
  std::ostringstream first, second;
  tracer.write_json(first);
  tracer.write_json(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("\"name\":\"a\""), std::string::npos);
  EXPECT_EQ(tracer.stats().drained_events, 0u);
  EXPECT_EQ(tracer.event_count(), 2u);
}

TEST(RingTracer, StreamingExportExceedsRingCapacity) {
  Tracer tracer(small_ring(16));
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId n = tracer.intern("op");
  std::ostringstream os;
  TraceStreamWriter writer(tracer, os);
  std::int64_t at = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      tracer.complete_span(t, n, kNoName, at, 1);
      at += 2;
    }
    writer.drain();
  }
  writer.finish();
  // 1000 spans flowed through a 16-slot ring with zero loss.
  EXPECT_EQ(writer.events_written(), 1000u);
  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, 1000u);
  EXPECT_EQ(s.drained_events, 1000u);
  EXPECT_EQ(s.dropped_ring_full, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);  // everything consumed
}

// Records the same deterministic per-track event streams using `workers`
// threads (tracks partitioned round-robin) and returns the streamed JSON.
std::string traced_json(std::size_t workers, std::uint32_t sample_every) {
  Tracer tracer(small_ring(1 << 12, sample_every));
  constexpr std::size_t kTracks = 8;
  constexpr int kEvents = 200;
  std::vector<TrackId> tracks;
  std::vector<NameId> names;
  for (std::size_t t = 0; t < kTracks; ++t) {
    tracks.push_back(
        tracer.add_track("ranks", "rank " + std::to_string(t)));
    names.push_back(tracer.intern("op" + std::to_string(t % 3)));
  }
  const NameId cat = tracer.intern("work");
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t t = w; t < kTracks; t += workers) {
        for (int i = 0; i < kEvents; ++i) {
          tracer.complete_span(tracks[t], names[t], cat,
                               i * 100 + static_cast<std::int64_t>(t),
                               50);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::ostringstream os;
  TraceStreamWriter writer(tracer, os);
  writer.finish();
  return os.str();
}

TEST(RingTracer, SampledTraceIdenticalAcrossRunsAndWorkerCounts) {
  // Same seed/program => byte-identical sampled trace, however the record
  // work was spread over threads, and stably across repeated runs.
  const std::string one = traced_json(1, 4);
  EXPECT_EQ(one, traced_json(4, 4));
  EXPECT_EQ(one, traced_json(3, 4));
  EXPECT_EQ(one, traced_json(1, 4));
  // Unsampled runs agree too (and differ from sampled ones).
  const std::string full = traced_json(1, 1);
  EXPECT_EQ(full, traced_json(4, 1));
  EXPECT_NE(full, one);
}

// tsan stress: per-thread producers register and hammer their own tracks
// while the main thread concurrently drains.  After the join, conservation
// must hold exactly: every successfully recorded event was either drained
// or is still in a ring; drops are counted, never silent.
Tracer::Stats hammer_while_draining(Tracer& tracer) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::ostringstream os;
  TraceStreamWriter writer(tracer, os);

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      const TrackId track =
          tracer.add_track("ranks", "rank " + std::to_string(t));
      const NameId name = tracer.intern("op" + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        if ((i & 7) == 0) {
          tracer.instant(track, name);
        } else {
          tracer.complete_span(track, name, kNoName,
                               static_cast<std::int64_t>(i), 1);
        }
      }
    });
  }
  for (int round = 0; round < 200; ++round) writer.drain();
  for (auto& p : producers) p.join();
  writer.finish();

  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total + s.instants_total, kThreads * kPerThread);
  EXPECT_EQ(s.sampled_events,
            s.spans_total + s.instants_total - s.dropped_ring_full);
  EXPECT_EQ(s.drained_events, s.sampled_events);  // finish() drained the rest
  EXPECT_EQ(writer.events_written(), s.drained_events);
  EXPECT_EQ(tracer.event_count(), 0u);
  return s;
}

TEST(RingTracer, ConcurrentProducersAndDrainerConserveEvents) {
  WallClock clock;
  Tracer tracer(clock, small_ring(1 << 8));
  hammer_while_draining(tracer);
}

// The default tracer's rings grow while the drainer reads them: a retired
// buffer must stay readable, and nothing may be lost.
TEST(RingTracer, GrowingRingsConserveEventsUnderConcurrentDrain) {
  WallClock clock;
  Tracer tracer(clock);
  const Tracer::Stats s = hammer_while_draining(tracer);
  EXPECT_EQ(s.dropped_ring_full, 0u);
  EXPECT_EQ(s.drained_events, s.spans_total + s.instants_total);
}

}  // namespace
}  // namespace polaris::obs
