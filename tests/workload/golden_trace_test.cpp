// Golden-trace regression for the event-queue replacement.
//
// The golden numbers below were captured by running this exact scenario on
// the seed engine (std::priority_queue + unordered_set cancellation) before
// the pooled 4-ary-heap queue landed.  Both queues order events by the same
// strict total order (time, then schedule sequence), so the full event
// interleaving — and therefore every span in the exported trace — must be
// bit-identical.  A hash mismatch here means the replacement changed
// simulation behaviour, not just its speed.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "polaris/obs/clock.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/workload/apps.hpp"

namespace polaris::workload {
namespace {

struct GoldenRun {
  des::SimTime final_time = 0;
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t trace_hash = 0;
  std::size_t trace_bytes = 0;
  obs::Tracer::Stats trace_stats;
};

GoldenRun run_halo16(bool explicit_oblivious = false) {
  Halo2DConfig cfg;
  cfg.iterations = 3;
  AppResult res;
  simrt::SimWorld world(16, fabric::fabrics::myrinet2000());
  if (explicit_oblivious) {
    // Redundant with the default, deliberately: this run proves that a
    // build carrying the adaptive-routing machinery produces the seed
    // trace when the mode is (explicitly) off.
    world.network().set_routing(fabric::RoutingMode::kOblivious);
  }
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  world.launch(make_halo2d(cfg, 16, &res));
  world.run();
  std::ostringstream trace;
  tracer.write_json(trace);
  const des::EngineStats stats = world.engine().stats();
  GoldenRun out;
  out.final_time = world.engine().now();
  out.executed = stats.executed;
  out.scheduled = stats.scheduled;
  out.trace_hash = obs::trace_hash(tracer);
  out.trace_bytes = trace.str().size();
  out.trace_stats = tracer.stats();
  return out;
}

// Captured on halo2d, 16 ranks, myrinet2000, 3 iterations.  The final
// time, trace hash, and trace byte count are UNCHANGED from the seed
// engine (commit e7b97ed): the two-tier fabric data path produces the
// same spans at the same simulated nanoseconds.  Only the engine event
// *structure* changed — analytic flights replace per-hop packet events
// (executed 2013 -> 1315), and scheduled > executed because a flight
// whose path a later message crosses has its closed-form completion
// event cancelled when it is demoted to walkers.
constexpr des::SimTime kGoldenFinalTime = 4076382;
constexpr std::uint64_t kGoldenExecuted = 1315;
constexpr std::uint64_t kGoldenScheduled = 1333;
constexpr std::uint64_t kGoldenTraceHash = 10557979453123585435ULL;
constexpr std::size_t kGoldenTraceBytes = 103794;

TEST(GoldenTrace, HaloExchangeMatchesSeedEngineEventOrder) {
  const GoldenRun run = run_halo16();
  EXPECT_EQ(run.final_time, kGoldenFinalTime);
  EXPECT_EQ(run.executed, kGoldenExecuted);
  EXPECT_EQ(run.scheduled, kGoldenScheduled);
  EXPECT_EQ(run.trace_bytes, kGoldenTraceBytes);
  EXPECT_EQ(run.trace_hash, kGoldenTraceHash);
  // The trace is complete: nothing sampled away or dropped.
  EXPECT_EQ(run.trace_stats.dropped_ring_full, 0u);
  EXPECT_EQ(run.trace_stats.dropped_no_slot, 0u);
}

// Adaptive routing is compiled into the network but DISABLED here: with
// RoutingMode::kOblivious every injection takes Topology::route() — choice
// 0 of the multipath set, bit-identical to the pre-multipath paths — so
// the golden constants must still hold exactly.  A mismatch means the
// adaptive machinery leaked into the oblivious data path.
TEST(GoldenTrace, AdaptiveRoutingDisabledReplaysSeedTraceExactly) {
  const GoldenRun run = run_halo16(/*explicit_oblivious=*/true);
  EXPECT_EQ(run.final_time, kGoldenFinalTime);
  EXPECT_EQ(run.executed, kGoldenExecuted);
  EXPECT_EQ(run.scheduled, kGoldenScheduled);
  EXPECT_EQ(run.trace_bytes, kGoldenTraceBytes);
  EXPECT_EQ(run.trace_hash, kGoldenTraceHash);
  // The trace is complete: nothing sampled away or dropped.
  EXPECT_EQ(run.trace_stats.dropped_ring_full, 0u);
  EXPECT_EQ(run.trace_stats.dropped_no_slot, 0u);
}

TEST(GoldenTrace, HaloExchangeIsRunToRunDeterministic) {
  const GoldenRun a = run_halo16();
  const GoldenRun b = run_halo16();
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

}  // namespace
}  // namespace polaris::workload
