// fault::Injector drives crashes/outages as DES events; HeartbeatService
// turns the resulting silence into detector suspicion with measurable
// latency.
#include "polaris/fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "polaris/fault/heartbeat.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/support/rng.hpp"

namespace polaris::fault {
namespace {

class InjectorTest : public ::testing::Test {
 protected:
  des::Engine engine_;
  fabric::Crossbar topo_{8};
  fabric::SimNetwork net_{engine_, fabric::fabrics::myrinet2000(), topo_};
};

TEST_F(InjectorTest, CrashAndRepairToggleTheNetwork) {
  Injector inj(engine_, net_);
  inj.schedule_node_crash(1.0, 3, /*repair_after=*/0.5);
  EXPECT_TRUE(inj.node_up(3));
  engine_.run_until(des::from_seconds(1.2));
  EXPECT_FALSE(inj.node_up(3));
  EXPECT_FALSE(net_.node_up(3));
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_EQ(inj.downed_at(3), 1.0);
  engine_.run();
  EXPECT_TRUE(inj.node_up(3));
  EXPECT_TRUE(inj.all_nodes_up());
  ASSERT_EQ(inj.history().size(), 2u);
  EXPECT_EQ(inj.history()[0].kind, FaultEvent::Kind::kNodeCrash);
  EXPECT_EQ(inj.history()[1].kind, FaultEvent::Kind::kNodeRepair);
}

TEST_F(InjectorTest, OverlappingCrashesCollapse) {
  Injector inj(engine_, net_);
  inj.schedule_node_crash(1.0, 3, 2.0);
  inj.schedule_node_crash(1.5, 3, 2.0);  // already down: no-op
  engine_.run();
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_TRUE(inj.node_up(3));
}

// Regression: an overlapping crash used to be swallowed whole, so the
// FIRST fault's repair resurrected the node inside the SECOND fault's
// window.  The merged plan must hold the node down until the later
// deadline, and the early (stale) repair event must do nothing.
TEST_F(InjectorTest, OverlappingCrashExtendsTheRepairWindow) {
  Injector inj(engine_, net_);
  inj.schedule_node_crash(1.0, 3, /*repair_after=*/2.0);  // repair at 3.0
  inj.schedule_node_crash(2.0, 3, /*repair_after=*/5.0);  // repair at 7.0
  // Pre-fix the node came back at t=3.0 — well inside the second window.
  engine_.run_until(des::from_seconds(3.5));
  EXPECT_FALSE(inj.node_up(3));
  EXPECT_EQ(inj.nodes_down(), 1u);
  engine_.run();
  EXPECT_TRUE(inj.node_up(3));
  EXPECT_NEAR(des::to_seconds(engine_.now()), 7.0, 1e-9);
  // No double count: one crash, one repair, one recorded overlap.
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_EQ(inj.overlapped_faults(), 1u);
  EXPECT_EQ(inj.repair_extensions(), 1u);
  ASSERT_EQ(inj.history().size(), 2u);
  EXPECT_EQ(inj.history()[0].kind, FaultEvent::Kind::kNodeCrash);
  EXPECT_EQ(inj.history()[1].kind, FaultEvent::Kind::kNodeRepair);
  EXPECT_DOUBLE_EQ(inj.history()[1].time, 7.0);
}

// An overlap whose window ends EARLIER than the pending repair must not
// shorten it (never resurrect early, in either direction).
TEST_F(InjectorTest, OverlappingCrashNeverShortensTheRepairWindow) {
  Injector inj(engine_, net_);
  inj.schedule_node_crash(1.0, 3, /*repair_after=*/6.0);  // repair at 7.0
  inj.schedule_node_crash(2.0, 3, /*repair_after=*/1.0);  // would end at 3.0
  engine_.run_until(des::from_seconds(5.0));
  EXPECT_FALSE(inj.node_up(3));
  engine_.run();
  EXPECT_TRUE(inj.node_up(3));
  EXPECT_NEAR(des::to_seconds(engine_.now()), 7.0, 1e-9);
  EXPECT_EQ(inj.overlapped_faults(), 1u);
  EXPECT_EQ(inj.repair_extensions(), 0u);  // plan unchanged
}

// An overlapping PERMANENT fault pins the node down: the pending repair
// is cancelled, not raced.
TEST_F(InjectorTest, OverlappingPermanentFaultCancelsThePendingRepair) {
  Injector inj(engine_, net_);
  inj.schedule_node_crash(1.0, 3, /*repair_after=*/2.0);
  inj.schedule_node_crash(2.0, 3, /*repair_after=*/0.0);  // permanent
  engine_.run();
  EXPECT_FALSE(inj.node_up(3));
  EXPECT_EQ(inj.nodes_down(), 1u);
  EXPECT_EQ(inj.crashes(), 1u);
  // Only the crash in history: the stale repair recognised itself.
  ASSERT_EQ(inj.history().size(), 1u);
  EXPECT_EQ(inj.history()[0].kind, FaultEvent::Kind::kNodeCrash);
}

// Same merge rules for links.
TEST_F(InjectorTest, OverlappingLinkOutagesMergeWindows) {
  Injector inj(engine_, net_);
  const fabric::LinkId l = topo_.route(0, 1).front();
  inj.schedule_link_outage(1.0, l, /*repair_after=*/1.0);  // up at 2.0
  inj.schedule_link_outage(1.5, l, /*repair_after=*/3.0);  // up at 4.5
  engine_.run_until(des::from_seconds(2.5));
  EXPECT_FALSE(net_.link_up(l));
  EXPECT_EQ(inj.links_down(), 1u);
  engine_.run();
  EXPECT_TRUE(net_.link_up(l));
  EXPECT_NEAR(des::to_seconds(engine_.now()), 4.5, 1e-9);
  EXPECT_EQ(inj.link_outages(), 1u);
  EXPECT_EQ(inj.overlapped_faults(), 1u);
}

// Collision-heavy soak: a dense timeline folded modulo a tiny topology
// lands many faults on each node, with windows overlapping constantly.
// Bookkeeping invariants must hold throughout and at the end.
TEST_F(InjectorTest, CollisionHeavyTimelineKeepsBookkeepingConsistent) {
  fabric::Crossbar small{2};
  fabric::SimNetwork net(engine_, fabric::fabrics::myrinet2000(), small);
  Injector inj(engine_, net);
  // ~1 failure every 0.25 s across the timeline, folded onto 2 nodes,
  // each with a 1 s repair window: overlaps are the common case.
  FailureTimeline timeline(FailureModel::exponential(25.0), 100, /*seed=*/5);
  const std::size_t scheduled =
      inj.load_node_timeline(timeline, /*horizon=*/50.0,
                             /*repair_after=*/1.0);
  EXPECT_GT(scheduled, 150u);
  engine_.run();
  // Every fault either flipped a node down or merged into a pending window.
  EXPECT_EQ(inj.crashes() + inj.overlapped_faults(), scheduled);
  EXPECT_GT(inj.overlapped_faults(), 0u);
  // Real flips only: counters return to zero, nobody resurrected early or
  // twice (a double repair would underflow nodes_down()).
  EXPECT_EQ(inj.nodes_down(), 0u);
  EXPECT_TRUE(inj.all_nodes_up());
  // History alternates crash/repair per node — strict state flips.
  std::vector<bool> down(2, false);
  double prev_time = 0.0;
  for (const FaultEvent& ev : inj.history()) {
    EXPECT_GE(ev.time, prev_time);
    prev_time = ev.time;
    if (ev.kind == FaultEvent::Kind::kNodeCrash) {
      EXPECT_FALSE(down[ev.id]) << "double-down at t=" << ev.time;
      down[ev.id] = true;
    } else {
      ASSERT_EQ(ev.kind, FaultEvent::Kind::kNodeRepair);
      EXPECT_TRUE(down[ev.id]) << "repair of an up node at t=" << ev.time;
      down[ev.id] = false;
    }
  }
  EXPECT_FALSE(down[0]);
  EXPECT_FALSE(down[1]);
}

// Property: for random crash/outage schedules — overlapping windows,
// permanent (repair_after <= 0) and timed faults, node and link targets —
// each target is down exactly over the union of its fault windows
// [at, at + repair_after), an infinite window for a permanent fault.  A
// fault landing on the instant its target would come back merges into the
// pending window (faults scheduled up front precede repairs at one tick),
// so windows that touch join.  The brute-force model builds that union per
// target and is checked against node_up/link_up after every event time and
// against history().
struct Window {
  double start;
  double end;  ///< +inf for a permanent fault
};

/// Maximal down intervals of one target: the union of its fault windows,
/// touching windows joined.
std::vector<Window> down_intervals(std::vector<Window> w) {
  std::sort(w.begin(), w.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  std::vector<Window> out;
  for (const Window& x : w) {
    if (!out.empty() && x.start <= out.back().end) {
      out.back().end = std::max(out.back().end, x.end);
    } else {
      out.push_back(x);
    }
  }
  return out;
}

bool down_at(const std::vector<Window>& intervals, double t) {
  for (const Window& x : intervals) {
    if (x.start <= t && t < x.end) return true;
  }
  return false;
}

TEST(InjectorProperty, RandomSchedulesMatchABruteForceTimeline) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Dyadic times (multiples of 1/64 s) are exact in doubles and in ticks,
  // so window ends computed by the injector and the model agree bit for bit.
  constexpr double kStep = 1.0 / 64.0;
  constexpr std::uint32_t kTargets = 4;  // few targets: overlaps are common
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    support::Random rng(seed);
    des::Engine engine;
    fabric::Crossbar topo{8};
    fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
    Injector inj(engine, net);
    std::vector<std::vector<Window>> node_w(kTargets), link_w(kTargets);
    std::vector<double> times;
    const int faults = static_cast<int>(rng.uniform_int(5, 40));
    for (int f = 0; f < faults; ++f) {
      const double at = static_cast<double>(rng.uniform_int(0, 640)) * kStep;
      double repair = static_cast<double>(rng.uniform_int(1, 320)) * kStep;
      const std::int64_t shape = rng.uniform_int(0, 9);
      if (shape == 0) repair = 0.0;   // permanent
      if (shape == 1) repair = -1.0;  // permanent, negative form
      const auto id =
          static_cast<std::uint32_t>(rng.uniform_int(0, kTargets - 1));
      const Window w{at, repair > 0.0 ? at + repair : kInf};
      if (rng.bernoulli(0.5)) {
        inj.schedule_node_crash(at, id, repair);
        node_w[id].push_back(w);
      } else {
        inj.schedule_link_outage(at, id, repair);
        link_w[id].push_back(w);
      }
      times.push_back(at);
      if (w.end < kInf) times.push_back(w.end);
    }

    std::vector<std::vector<Window>> node_i(kTargets), link_i(kTargets);
    // Model history: (time, kind, id) per interval edge.
    using Edge = std::tuple<double, int, std::uint32_t>;
    std::vector<Edge> want;
    const auto add_edges = [&want](const std::vector<Window>& intervals,
                                   FaultEvent::Kind down, FaultEvent::Kind up,
                                   std::uint32_t id) {
      for (const Window& x : intervals) {
        want.emplace_back(x.start, static_cast<int>(down), id);
        if (x.end < kInf) want.emplace_back(x.end, static_cast<int>(up), id);
      }
    };
    std::size_t crashes = 0, outages = 0;
    for (std::uint32_t id = 0; id < kTargets; ++id) {
      node_i[id] = down_intervals(node_w[id]);
      link_i[id] = down_intervals(link_w[id]);
      crashes += node_i[id].size();
      outages += link_i[id].size();
      add_edges(node_i[id], FaultEvent::Kind::kNodeCrash,
                FaultEvent::Kind::kNodeRepair, id);
      add_edges(link_i[id], FaultEvent::Kind::kLinkDown,
                FaultEvent::Kind::kLinkUp, id);
    }

    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    for (const double t : times) {
      engine.run_until(des::from_seconds(t));
      std::uint32_t nodes_down = 0;
      for (std::uint32_t id = 0; id < kTargets; ++id) {
        const bool node_down = down_at(node_i[id], t);
        nodes_down += node_down ? 1 : 0;
        EXPECT_EQ(inj.node_up(id), !node_down) << "node " << id << " t=" << t;
        EXPECT_EQ(net.link_up(id), !down_at(link_i[id], t))
            << "link " << id << " t=" << t;
      }
      EXPECT_EQ(inj.nodes_down(), nodes_down) << "t=" << t;
    }
    engine.run();
    EXPECT_TRUE(engine.empty());

    EXPECT_EQ(inj.crashes(), crashes);
    EXPECT_EQ(inj.link_outages(), outages);
    EXPECT_EQ(inj.crashes() + inj.link_outages() + inj.overlapped_faults(),
              static_cast<std::uint64_t>(faults));
    // Same-tick events on different targets may interleave either way, so
    // history is compared as a time-ordered multiset.
    std::vector<Edge> got;
    double prev = 0.0;
    for (const FaultEvent& ev : inj.history()) {
      EXPECT_GE(ev.time, prev);
      prev = ev.time;
      got.emplace_back(ev.time, static_cast<int>(ev.kind), ev.id);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

// Each fault and repair rides one pooled record that is freed when its
// event fires, so the pool is bounded by the pending faults, not history.
TEST_F(InjectorTest, RecordPoolStaysFlatOverManyCrashRepairCycles) {
  Injector inj(engine_, net_);
  constexpr int kCycles = 100'000;
  for (int i = 0; i < kCycles; ++i) {
    const double now = des::to_seconds(engine_.now());
    inj.schedule_node_crash(now + 1.0, 3, /*repair_after=*/0.5);
    inj.schedule_link_outage(now + 1.0, 0, /*repair_after=*/0.25);
    engine_.run();
  }
  EXPECT_EQ(inj.crashes(), static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(inj.link_outages(), static_cast<std::uint64_t>(kCycles));
  EXPECT_TRUE(inj.all_nodes_up());
  EXPECT_TRUE(net_.link_up(0));
  EXPECT_LE(inj.record_capacity(), 2u);
  EXPECT_LE(engine_.stats().pool_capacity, 2u);
}

TEST_F(InjectorTest, LinkOutageTogglesTheLink) {
  Injector inj(engine_, net_);
  const fabric::LinkId l = topo_.route(0, 1).front();
  inj.schedule_link_outage(1.0, l, /*repair_after=*/1.0);
  engine_.run_until(des::from_seconds(1.5));
  EXPECT_FALSE(net_.link_up(l));
  EXPECT_EQ(inj.link_outages(), 1u);
  engine_.run();
  EXPECT_TRUE(net_.link_up(l));
}

TEST_F(InjectorTest, WorkForIsInterruptedByFaults) {
  Injector inj(engine_, net_);
  inj.schedule_node_crash(1.0, 2, /*repair_after=*/0.25);
  bool first = true, second = true;
  engine_.spawn([](Injector& i, bool& a, bool& b) -> des::Task<void> {
    a = co_await i.work_for(3.0);     // crash at t=1 interrupts
    co_await i.await_all_nodes_up();  // resumes at t=1.25
    b = co_await i.work_for(3.0);     // no further faults: completes
  }(inj, first, second));
  engine_.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_NEAR(des::to_seconds(engine_.now()), 1.25 + 3.0, 1e-9);
}

TEST_F(InjectorTest, LoadNodeTimelineSchedulesEveryEvent) {
  Injector inj(engine_, net_);
  const FailureModel model = FailureModel::exponential(100.0);
  FailureTimeline timeline(model, 8, /*seed=*/7);
  const std::size_t n =
      inj.load_node_timeline(timeline, /*horizon=*/50.0,
                             /*repair_after=*/0.1);
  EXPECT_GT(n, 0u);
  engine_.run();
  EXPECT_EQ(inj.crashes(), n);
  EXPECT_TRUE(inj.all_nodes_up());  // every crash was repaired
}

TEST_F(InjectorTest, HeartbeatsDetectACrashWithBoundedLatency) {
  Injector inj(engine_, net_);
  HeartbeatService::Config cfg;
  cfg.period = 0.1;
  cfg.timeout = 0.5;
  cfg.horizon = 10.0;
  HeartbeatService hb(engine_, net_, cfg);
  hb.start();
  inj.schedule_node_crash(3.0, 5);  // permanent
  engine_.run();
  EXPECT_TRUE(hb.suspected(5));
  const double latency = hb.suspected_at(5) - inj.downed_at(5);
  EXPECT_GT(latency, 0.0);
  // Timeout detector bound: silence threshold + one polling period.
  EXPECT_LE(latency, cfg.timeout + cfg.period + 1e-9);
  // Healthy nodes stay unsuspected and keep delivering.
  for (std::uint32_t n = 1; n < 5; ++n) EXPECT_FALSE(hb.suspected(n));
  EXPECT_GT(hb.heartbeats_delivered(), 0u);
  EXPECT_GE(hb.suspicions(), 1u);
}

TEST_F(InjectorTest, RepairedNodeClearsSuspicion) {
  Injector inj(engine_, net_);
  HeartbeatService::Config cfg;
  cfg.period = 0.1;
  cfg.timeout = 0.5;
  cfg.horizon = 10.0;
  HeartbeatService hb(engine_, net_, cfg);
  hb.start();
  inj.schedule_node_crash(3.0, 5, /*repair_after=*/2.0);
  engine_.run();
  EXPECT_FALSE(hb.suspected(5));  // fresh heartbeats cleared it
  EXPECT_GE(hb.suspicions(), 1u);  // but the outage WAS noticed
}

}  // namespace
}  // namespace polaris::fault
