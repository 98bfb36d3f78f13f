// End-to-end fault injection through the fast data path.
//
// Three properties pin the tentpole down:
//   1. A SimWorld with the fault machinery ARMED but no fault scheduled is
//      bit-identical to the seed golden run (final time + exported trace).
//      Arming only adds timers that are always cancelled before firing, and
//      cancelled timers shift nothing.
//   2. A seeded node crash mid-exchange surfaces as error statuses on the
//      survivors: a rendezvous send to the dead rank fails after exactly
//      max_retries backoffs, and a posted receive from it times out with
//      kPeerDown instead of hanging the simulation.
//   3. FailureTimeline::until() and ::next() describe the same stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "polaris/fault/failure.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/obs/clock.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/workload/apps.hpp"

namespace polaris {
namespace {

// Same scenario and constants as tests/workload/golden_trace_test.cpp
// (halo2d, 16 ranks, myrinet2000, 3 iterations, seed commit e7b97ed).
// Engine event counts are deliberately NOT compared: armed-then-cancelled
// receive timers add scheduled events without moving a single span.
constexpr des::SimTime kGoldenFinalTime = 4076382;
constexpr std::uint64_t kGoldenTraceHash = 10557979453123585435ULL;
constexpr std::size_t kGoldenTraceBytes = 103794;

TEST(FaultRecovery, ArmedButEmptyInjectorKeepsGoldenTrace) {
  workload::Halo2DConfig cfg;
  cfg.iterations = 3;
  workload::AppResult res;
  simrt::SimWorld world(16, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.recv_timeout = 1.0;  // armed on every queued receive, never fires
  world.enable_faults(injector, policy);
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  world.launch(workload::make_halo2d(cfg, 16, &res));
  world.run();
  std::ostringstream trace;
  tracer.write_json(trace);
  EXPECT_EQ(world.engine().now(), kGoldenFinalTime);
  EXPECT_EQ(trace.str().size(), kGoldenTraceBytes);
  EXPECT_EQ(obs::trace_hash(tracer), kGoldenTraceHash);
  EXPECT_EQ(tracer.stats().dropped_ring_full, 0u);
  EXPECT_EQ(tracer.stats().dropped_no_slot, 0u);
  EXPECT_EQ(world.msg_retries(), 0u);
  EXPECT_EQ(world.msg_drops(), 0u);
  EXPECT_EQ(world.recv_timeouts(), 0u);
}

TEST(FaultRecovery, NodeCrashMidExchangeSurfacesOnSurvivors) {
  simrt::SimWorld world(4, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff = 0.01;
  policy.backoff_factor = 2.0;
  policy.recv_timeout = 0.05;
  world.enable_faults(injector, policy);
  injector.schedule_node_crash(/*at=*/0.005, /*node=*/1);  // permanent

  simrt::SimStatus send_status = simrt::SimStatus::kOk;
  double send_elapsed = -1.0;
  simrt::SimRecvStatus recv_status;
  double recv_elapsed = -1.0;

  world.launch([&](simrt::SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      // Let the crash land first, then talk to the corpse.  1 MiB forces
      // rendezvous: the RTS is refused at inject, retried with the
      // configured backoffs, then the send fails.
      co_await c.sleep(0.01);
      const double t0 = c.now();
      send_status = co_await c.send(1, /*tag=*/7, 1 << 20);
      send_elapsed = c.now() - t0;
      // An eager send to the dead rank still "completes" (buffered
      // semantics); its wire chain retries and drops in the background.
      co_await c.send(1, /*tag=*/8, 64);
    } else if (c.rank() == 2) {
      // A receive from the dead rank must fail, not hang.
      const double t0 = c.now();
      simrt::SimRequest r = c.irecv(1, /*tag=*/9);
      recv_status = co_await c.wait(r);
      recv_elapsed = c.now() - t0;
    }
    co_return;
  });
  world.run();

  EXPECT_EQ(send_status, simrt::SimStatus::kPeerDown);
  // Refused injections cost no wire time, so the failed send's latency is
  // the backoff ladder: 0.01 + 0.02 + 0.04.
  EXPECT_NEAR(send_elapsed, 0.07, 0.01);
  EXPECT_EQ(recv_status.status, simrt::SimStatus::kPeerDown);
  EXPECT_FALSE(recv_status.ok());
  EXPECT_NEAR(recv_elapsed, policy.recv_timeout, 0.01);

  // Exactly two failed messages: 3 retries each for the rendezvous RTS and
  // the eager wire leg, one timed-out receive.
  EXPECT_EQ(world.msg_retries(), 6u);
  EXPECT_EQ(world.msg_drops(), 2u);
  EXPECT_EQ(world.recv_timeouts(), 1u);
  EXPECT_EQ(injector.crashes(), 1u);
  EXPECT_EQ(injector.downed_at(1), 0.005);
  EXPECT_FALSE(injector.node_up(1));
}

TEST(FaultRecovery, RecoveredPeerCompletesAfterRetries) {
  // A transient outage: the node comes back before the retry budget runs
  // out, so the same exchange completes with kOk — recovery, not failure.
  simrt::SimWorld world(4, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff = 0.01;
  policy.backoff_factor = 2.0;
  world.enable_faults(injector, policy);
  injector.schedule_node_crash(/*at=*/0.005, /*node=*/1,
                               /*repair_after=*/0.02);

  simrt::SimStatus send_status = simrt::SimStatus::kPeerDown;
  simrt::SimRecvStatus recv_status;
  world.launch([&](simrt::SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.sleep(0.01);  // inside the outage window
      send_status = co_await c.send(1, /*tag=*/7, 1 << 20);
    } else if (c.rank() == 1) {
      recv_status = co_await c.recv(0, /*tag=*/7);
    }
    co_return;
  });
  world.run();

  EXPECT_EQ(send_status, simrt::SimStatus::kOk);
  EXPECT_EQ(recv_status.status, simrt::SimStatus::kOk);
  EXPECT_EQ(recv_status.bytes, 1u << 20);
  EXPECT_GE(world.msg_retries(), 1u);
  EXPECT_EQ(world.msg_drops(), 0u);
  EXPECT_TRUE(injector.node_up(1));
}

TEST(FaultRecovery, AbandonedRendezvousReturnsItsRecord) {
  // The RTS lands at rank 1, whose node then dies.  The sender's
  // match-wait deadline (0.05 s) finds the peer dead and abandons the
  // handshake.  Rank 1 posts its receive either after that (the envelope
  // queued in the dead rank's matcher must give its pooled InFlight record
  // back and match nothing) or just before it, so that the sender gives up
  // while the receive pins its landing buffer (the receive must fail, not
  // wait forever for a payload nobody sends).
  for (const double post_at : {0.2, 0.04995}) {
    simrt::SimWorld world(4, fabric::fabrics::myrinet2000());
    fault::Injector injector(world.engine(), world.network());
    simrt::RetryPolicy policy;
    policy.recv_timeout = 0.05;
    world.enable_faults(injector, policy);
    injector.schedule_node_crash(/*at=*/0.001, /*node=*/1);  // permanent

    simrt::SimStatus send_status = simrt::SimStatus::kOk;
    simrt::SimRecvStatus late_recv;
    world.launch([&](simrt::SimComm& c) -> des::Task<void> {
      if (c.rank() == 0) {
        send_status = co_await c.send(1, /*tag=*/7, 1 << 20);  // rendezvous
      } else if (c.rank() == 1) {
        co_await c.sleep(post_at);
        late_recv = co_await c.recv(0, /*tag=*/7);
      }
      co_return;
    });
    world.run();

    EXPECT_EQ(send_status, simrt::SimStatus::kPeerDown) << post_at;
    EXPECT_EQ(late_recv.status, post_at > 0.05 ? simrt::SimStatus::kTimeout
                                                : simrt::SimStatus::kPeerDown)
        << post_at;
    EXPECT_EQ(world.ranks_finished(), 4u) << post_at;
    EXPECT_EQ(world.msg_drops(), 1u) << post_at;
    EXPECT_EQ(world.inflight_in_use(), 0u) << post_at;
  }
}

TEST(FaultTimeline, UntilAndNextDescribeTheSameStream) {
  const fault::FailureModel model = fault::FailureModel::exponential(3600.0);
  fault::FailureTimeline a(model, 64, /*seed=*/42);
  fault::FailureTimeline b(model, 64, /*seed=*/42);

  // Drain `a` through until() with increasing horizons, `b` through
  // next(); the merged streams must agree event for event.
  std::vector<fault::FailureTimeline::Event> from_until;
  for (double horizon = 500.0; from_until.size() < 100;
       horizon += 500.0) {
    for (const auto& ev : a.until(horizon)) from_until.push_back(ev);
  }
  for (const auto& ev : from_until) {
    const fault::FailureTimeline::Event n = b.next();
    EXPECT_DOUBLE_EQ(n.time, ev.time);
    EXPECT_EQ(n.node, ev.node);
  }
}

}  // namespace
}  // namespace polaris
