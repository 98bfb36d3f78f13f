// ResourceManager scheduling semantics.
//
// EASY backfill strictly helps mean wait over plain FCFS and never loses
// a job, conservative backfill completes everything, priority preemption
// restarts victims with the waste accounted, reservations hold their
// window, fair share reorders equal-priority users, and topology
// placement stays contiguous.  (The classic policies themselves are
// pinned in policy_test.cpp.)
#include "polaris/rm/manager.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/workload/job_mix.hpp"

namespace polaris::rm {
namespace {

// Comparing ticks sidesteps the one-ulp noise of double<->tick round
// trips.
std::int64_t ticks(double seconds) { return des::from_seconds(seconds); }

std::vector<JobSpec> saturating_trace(std::size_t count, std::uint64_t seed) {
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = count;
  cfg.users = 8;
  cfg.accounts = 2;
  cfg.mean_interarrival = 60.0;
  cfg.max_width_exp = 5;  // widths <= 32 on a 64-node machine
  cfg.min_runtime = 60.0;
  cfg.max_runtime = 2.0 * 3600.0;
  return workload::make_multi_user_trace(cfg, seed);
}

TEST(ResourceManagerTest, EasyBackfillImprovesMeanWait) {
  const std::vector<JobSpec> specs = saturating_trace(400, 42);
  constexpr std::size_t kNodes = 64;

  des::Engine fcfs_engine;
  ResourceManager fcfs_rm(fcfs_engine, kNodes, RmConfig::legacy_fcfs());
  for (const JobSpec& s : specs) fcfs_rm.submit(s);
  fcfs_engine.run();
  const ResourceManager::Summary fcfs = fcfs_rm.summary();
  ASSERT_EQ(fcfs.completed, specs.size());
  EXPECT_EQ(fcfs.backfilled, 0u);

  RmConfig cfg = RmConfig::legacy_fcfs();
  cfg.backfill = true;
  cfg.backfill_interval = 0.0;  // every dirty event may trigger a cycle
  des::Engine engine;
  ResourceManager rm(engine, kNodes, cfg);
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();

  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.completed, specs.size());
  EXPECT_GT(s.backfilled, 0u);
  EXPECT_LT(s.mean_wait, fcfs.mean_wait);
  EXPECT_GT(rm.backfill_cycles(), 0u);
}

TEST(ResourceManagerTest, ConservativeBackfillCompletesEverything) {
  const std::vector<JobSpec> specs = saturating_trace(300, 7);
  RmConfig cfg = RmConfig::legacy_fcfs();
  cfg.backfill = true;
  cfg.conservative = true;
  cfg.backfill_interval = 30.0;
  des::Engine engine;
  ResourceManager rm(engine, 64, cfg);
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();
  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.completed, specs.size());
  EXPECT_GT(s.backfilled, 0u);
}

TEST(ResourceManagerTest, RateLimitedBackfillCoalescesCycles) {
  const std::vector<JobSpec> specs = saturating_trace(300, 7);
  auto run_with_interval = [&](double interval) {
    RmConfig cfg = RmConfig::legacy_fcfs();
    cfg.backfill = true;
    cfg.backfill_interval = interval;
    des::Engine engine;
    ResourceManager rm(engine, 64, cfg);
    for (const JobSpec& s : specs) rm.submit(s);
    engine.run();
    EXPECT_EQ(rm.summary().completed, specs.size());
    return rm.backfill_cycles();
  };
  const std::uint64_t eager = run_with_interval(0.0);
  const std::uint64_t limited = run_with_interval(300.0);
  EXPECT_LT(limited, eager);
  EXPECT_GT(limited, 0u);
}

TEST(ResourceManagerTest, PreemptionRestartsVictimAndAccountsWaste) {
  des::Engine engine;
  RmConfig cfg;
  cfg.placement = RmConfig::Placement::kFlat;
  cfg.backfill = false;
  cfg.preemption = true;
  cfg.priority_tiers = 8;
  ResourceManager rm(engine, 4, cfg);

  JobSpec low;
  low.id = 1;
  low.submit = 0.0;
  low.runtime = 1000.0;
  low.estimate = 1000.0;
  low.width = 4;
  low.priority = 0;
  low.preemptible = true;
  JobSpec high;
  high.id = 2;
  high.submit = 10.0;
  high.runtime = 50.0;
  high.estimate = 50.0;
  high.width = 4;
  high.priority = 7;
  high.preemptible = false;
  rm.submit(low);
  rm.submit(high);
  engine.run();

  const JobRecord* lo = rm.accounting().find(1);
  const JobRecord* hi = rm.accounting().find(2);
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(ticks(hi->start), ticks(10.0));
  EXPECT_EQ(ticks(hi->finish), ticks(60.0));
  EXPECT_EQ(lo->requeues, 1u);
  EXPECT_NEAR(lo->wasted_node_seconds, 40.0, 1e-9);  // 4 nodes * 10 s
  EXPECT_EQ(ticks(lo->start), ticks(60.0));  // restarted from scratch
  EXPECT_EQ(ticks(lo->finish), ticks(1060.0));
  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.preemptions, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(ResourceManagerTest, TaggedJobRunsInsideReservationWindow) {
  des::Engine engine;
  RmConfig cfg = RmConfig::legacy_fcfs();
  cfg.backfill = true;
  cfg.backfill_interval = 0.0;
  ResourceManager rm(engine, 4, cfg);
  const ReservationId rid = rm.add_reservation(100.0, 200.0, 4);

  JobSpec tagged;
  tagged.id = 1;
  tagged.submit = 0.0;
  tagged.runtime = 50.0;
  tagged.estimate = 50.0;
  tagged.width = 4;
  tagged.reservation = rid;
  JobSpec filler;
  filler.id = 2;
  filler.submit = 0.0;
  filler.runtime = 20.0;
  filler.estimate = 20.0;
  filler.width = 4;
  rm.submit(tagged);
  rm.submit(filler);
  engine.run();

  const JobRecord* t = rm.accounting().find(1);
  const JobRecord* f = rm.accounting().find(2);
  ASSERT_NE(t, nullptr);
  ASSERT_NE(f, nullptr);
  // The tagged job waits for its window even though the machine is idle.
  EXPECT_EQ(ticks(t->start), ticks(100.0));
  EXPECT_EQ(ticks(t->finish), ticks(150.0));
  // The filler may only run once the reservation's demand is satisfied.
  EXPECT_EQ(ticks(f->start), ticks(150.0));
  EXPECT_EQ(rm.summary().completed, 2u);
}

TEST(ResourceManagerTest, ReservationBlocksOverlappingUntaggedJob) {
  des::Engine engine;
  ResourceManager rm(engine, 4, RmConfig::legacy_fcfs());
  rm.add_reservation(100.0, 200.0, 4);

  JobSpec big;
  big.id = 1;
  big.submit = 0.0;
  big.runtime = 1000.0;
  big.estimate = 1000.0;
  big.width = 4;
  rm.submit(big);
  engine.run();

  const JobRecord* rec = rm.accounting().find(1);
  ASSERT_NE(rec, nullptr);
  // Its planned run would cross the window, so it waits out the whole
  // reservation (nobody claimed the held nodes).
  EXPECT_EQ(ticks(rec->start), ticks(200.0));
  EXPECT_EQ(ticks(rec->finish), ticks(1200.0));
}

TEST(ResourceManagerTest, FairShareDeprioritizesHeavyUser) {
  des::Engine engine;
  RmConfig cfg;
  cfg.placement = RmConfig::Placement::kFlat;
  cfg.backfill = false;
  cfg.fair_share = true;
  cfg.priority_tiers = 1;
  cfg.fairshare_tiers = 4;
  ResourceManager rm(engine, 1, cfg);

  auto mk = [](JobId id, UserId user, double submit, double runtime) {
    JobSpec s;
    s.id = id;
    s.user = user;
    s.submit = submit;
    s.runtime = runtime;
    s.estimate = runtime;
    s.width = 1;
    return s;
  };
  rm.submit(mk(1, /*user=*/0, 0.0, 1000.0));     // the hog
  rm.submit(mk(2, /*user=*/2, 1000.0, 500.0));   // keeps the node busy
  rm.submit(mk(3, /*user=*/0, 1100.0, 10.0));    // hog again (submitted first)
  rm.submit(mk(4, /*user=*/1, 1100.0, 10.0));    // idle user
  engine.run();

  const JobRecord* hog = rm.accounting().find(3);
  const JobRecord* idle = rm.accounting().find(4);
  ASSERT_NE(hog, nullptr);
  ASSERT_NE(idle, nullptr);
  // The idle user's decayed-usage factor lands in a higher sub-tier, so
  // their job overtakes the hog's earlier submission.
  EXPECT_EQ(ticks(idle->start), ticks(1500.0));
  EXPECT_EQ(ticks(hog->start), ticks(1510.0));
  EXPECT_LT(rm.accounting().user_factor(0, 1100.0),
            rm.accounting().user_factor(1, 1100.0));
}

struct PlacementProbe {
  ResourceManager* rm;
  bool saw_contiguous = false;

  static void check_cb(void* ctx) {
    auto& p = *static_cast<PlacementProbe*>(ctx);
    for (JobId id = 1; id <= 4; ++id) {
      const Allocation* a = p.rm->allocation_of(id);
      ASSERT_NE(a, nullptr) << "job " << id << " not running";
      EXPECT_TRUE(a->contiguous());
      EXPECT_EQ(a->nodes.size(), 16u);
    }
    p.saw_contiguous = true;
  }
};

TEST(ResourceManagerTest, TopologyPlacementIsContiguous) {
  des::Engine engine;
  fabric::Torus2D topo(8, 8);
  RmConfig cfg;  // default placement: kTopology
  ResourceManager rm(engine, topo, cfg);
  for (JobId id = 1; id <= 4; ++id) {
    JobSpec s;
    s.id = id;
    s.submit = 0.0;
    s.runtime = 100.0;
    s.estimate = 100.0;
    s.width = 16;
    rm.submit(s);
  }
  PlacementProbe probe{&rm};
  engine.schedule_raw_at(des::from_seconds(1.0), &PlacementProbe::check_cb,
                         &probe);
  engine.run();
  EXPECT_TRUE(probe.saw_contiguous);
  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.fragmented_allocs, 0u);
  EXPECT_EQ(rm.allocation_of(1), nullptr);  // released after completion
}

TEST(ResourceManagerTest, OffGridSubmitReportsNoNegativeWait) {
  // A submit between two ticks: the arrival fires at the rounded tick, so
  // the start stamp sits 0.4 ns below the caller's submit.  The ledger
  // keeps that raw stamp; the reported wait clamps at zero.
  des::Engine engine;
  obs::MetricsRegistry metrics;
  ResourceManager rm(engine, 4, RmConfig{});
  rm.attach_metrics(metrics);
  JobSpec s;
  s.id = 1;
  s.submit = 1.0000000004;
  s.runtime = 10.0;
  s.estimate = 10.0;
  s.width = 1;
  rm.submit(s);
  engine.run();

  const JobRecord* rec = rm.accounting().find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_LT(rec->start, s.submit);
  const ResourceManager::Summary sum = rm.summary();
  ASSERT_EQ(sum.completed, 1u);
  EXPECT_EQ(sum.mean_wait, 0.0);
  EXPECT_EQ(sum.p95_wait, 0.0);
  const obs::LogHistogram& h = metrics.log_histogram("rm.wait_time_us");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0u);
}

}  // namespace
}  // namespace polaris::rm
