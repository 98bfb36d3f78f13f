// Fault integration: node crashes flow from the Injector (or the direct
// node_failed API) into the resource manager, which requeues the owning
// job, drains the node, and re-places the work once capacity returns.
// A checkpointing job resumes from its last checkpoint instead of from
// scratch.  Same-seed reruns must produce byte-identical accounting
// ledgers.  The FaultAware cases run whole traces on a failing machine,
// the way bench_f10_fault_aware does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/checkpoint.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/check.hpp"
#include "polaris/workload/job_mix.hpp"

namespace polaris::rm {
namespace {

std::int64_t ticks(double seconds) { return des::from_seconds(seconds); }

TEST(FaultRequeueTest, CrashRequeuesOwningJobUntilRepair) {
  des::Engine engine;
  fabric::Torus2D topo(4, 4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);

  RmConfig cfg;
  cfg.backfill = false;
  ResourceManager rm(engine, topo, cfg);
  rm.attach_injector(injector);

  // Four jobs fill the 16-node machine.
  for (JobId id = 0; id < 4; ++id) {
    JobSpec s;
    s.id = id;
    s.submit = 0.0;
    s.runtime = 1000.0;
    s.estimate = 1000.0;
    s.width = 4;
    rm.submit(s);
  }
  injector.schedule_node_crash(/*at=*/100.0, /*node=*/0,
                               /*repair_after=*/50.0);
  engine.run();

  const AccountingStore::Totals t = rm.accounting().totals();
  EXPECT_EQ(t.jobs, 4u);
  EXPECT_EQ(t.completed, 4u);
  EXPECT_EQ(t.requeues, 1u);

  // Exactly one victim: it lost 4 nodes x 100 s, then had to wait for the
  // repair (free nodes: 3 of its own 4 until the crashed one returns).
  const JobRecord* victim = nullptr;
  for (const JobRecord& r : rm.accounting().query({})) {
    if (r.requeues > 0) {
      ASSERT_EQ(victim, nullptr) << "more than one requeued job";
      victim = rm.accounting().find(r.id);
    }
  }
  ASSERT_NE(victim, nullptr);
  EXPECT_NEAR(victim->wasted_node_seconds, 400.0, 1e-9);
  EXPECT_EQ(ticks(victim->start), ticks(150.0));
  EXPECT_EQ(ticks(victim->finish), ticks(1150.0));
  EXPECT_EQ(rm.summary().requeues, 1u);
  EXPECT_EQ(rm.allocator().drained_count(), 0u);  // repaired
}

struct NodeEvent {
  ResourceManager* rm;
  fabric::NodeId node;

  static void fail_cb(void* ctx) {
    auto& e = *static_cast<NodeEvent*>(ctx);
    e.rm->node_failed(e.node);
  }
  static void repair_cb(void* ctx) {
    auto& e = *static_cast<NodeEvent*>(ctx);
    e.rm->node_repaired(e.node);
  }
};

TEST(FaultRequeueTest, DirectNodeFailedApiWithoutInjector) {
  des::Engine engine;
  ResourceManager rm(engine, 8, RmConfig::legacy_fcfs());
  JobSpec s;
  s.id = 1;
  s.submit = 0.0;
  s.runtime = 1000.0;
  s.estimate = 1000.0;
  s.width = 8;
  rm.submit(s);

  NodeEvent ev{&rm, 3};
  engine.schedule_raw_at(des::from_seconds(100.0), &NodeEvent::fail_cb, &ev);
  engine.schedule_raw_at(des::from_seconds(200.0), &NodeEvent::repair_cb,
                         &ev);
  engine.run();

  const JobRecord* rec = rm.accounting().find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kCompleted);
  EXPECT_EQ(rec->requeues, 1u);
  EXPECT_NEAR(rec->wasted_node_seconds, 800.0, 1e-9);  // 8 nodes x 100 s
  EXPECT_EQ(ticks(rec->start), ticks(200.0));  // needs all 8 nodes back
  EXPECT_EQ(ticks(rec->finish), ticks(1200.0));
  EXPECT_EQ(rm.allocator().drained_count(), 0u);
}

TEST(FaultRequeueTest, PermanentCrashDrainsNodeForGood) {
  des::Engine engine;
  fabric::Torus2D topo(4, 4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  RmConfig cfg;
  cfg.backfill = false;
  ResourceManager rm(engine, topo, cfg);
  rm.attach_injector(injector);

  JobSpec s;
  s.id = 1;
  s.submit = 0.0;
  s.runtime = 500.0;
  s.estimate = 500.0;
  s.width = 8;  // half the machine: a replacement block exists
  rm.submit(s);
  injector.schedule_node_crash(/*at=*/100.0, /*node=*/0,
                               /*repair_after=*/0.0);  // permanent
  engine.run();

  const JobRecord* rec = rm.accounting().find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kCompleted);
  EXPECT_EQ(rec->requeues, 1u);
  // Replacement allocation happens immediately on the surviving nodes.
  EXPECT_EQ(ticks(rec->start), ticks(100.0));
  EXPECT_EQ(ticks(rec->finish), ticks(600.0));
  EXPECT_EQ(rm.allocator().drained_count(), 1u);
  for (const fabric::NodeId nd : {fabric::NodeId{0}}) {
    EXPECT_TRUE(rm.allocator().drained(nd));
  }
}

struct RunResult {
  std::uint64_t fingerprint = 0;
  AccountingStore::Totals totals;
  std::uint64_t requeues = 0;
};

RunResult crashy_run(std::uint64_t seed) {
  des::Engine engine;
  fabric::Torus2D topo(4, 4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);

  RmConfig cfg;
  cfg.backfill = true;
  cfg.backfill_interval = 15.0;
  ResourceManager rm(engine, topo, cfg);
  rm.attach_injector(injector);

  workload::MultiUserTraceConfig tc;
  tc.jobs = 120;
  tc.users = 4;
  tc.accounts = 2;
  tc.mean_interarrival = 200.0;
  tc.max_width_exp = 3;  // widths <= 8 on 16 nodes
  tc.min_runtime = 100.0;
  tc.max_runtime = 2000.0;
  for (const JobSpec& s : workload::make_multi_user_trace(tc, seed)) {
    rm.submit(s);
  }
  // Repeated crashes sweeping across the machine, each repaired later so
  // the widest jobs can always eventually run.
  for (int i = 0; i < 6; ++i) {
    injector.schedule_node_crash(500.0 + 2500.0 * i,
                                 static_cast<std::uint32_t>((i * 5) % 16),
                                 /*repair_after=*/250.0);
  }
  engine.run();

  RunResult out;
  out.fingerprint = rm.accounting().fingerprint();
  out.totals = rm.accounting().totals();
  out.requeues = rm.summary().requeues;
  return out;
}

TEST(FaultRequeueTest, SameSeedRunsProduceIdenticalLedgers) {
  const RunResult a = crashy_run(2002);
  const RunResult b = crashy_run(2002);
  EXPECT_EQ(a.totals.jobs, 120u);
  EXPECT_EQ(a.totals.completed, 120u);  // every requeued job finishes
  EXPECT_GE(a.requeues, 1u);            // the crashes did land on work
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.totals.requeues, b.totals.requeues);
  EXPECT_EQ(a.totals.wasted_node_seconds, b.totals.wasted_node_seconds);

  const RunResult c = crashy_run(2003);
  EXPECT_NE(a.fingerprint, c.fingerprint);  // different seed, different run
}

JobSpec whole_machine_job(double checkpoint_interval) {
  JobSpec s;
  s.id = 1;
  s.runtime = 100.0;
  s.estimate = 100.0;
  s.width = 4;
  s.checkpoint_interval = checkpoint_interval;
  return s;
}

/// Crashes node `node` of the job's 4-node machine at 70 s, repairs it at
/// 80 s; checkpoints cost 10 s and a restart 5 s.
const JobRecord& crash_at_70(des::Engine& engine, ResourceManager& rm,
                             fabric::NodeId node) {
  NodeEvent ev{&rm, node};
  engine.schedule_raw_at(des::from_seconds(70.0), &NodeEvent::fail_cb, &ev);
  engine.schedule_raw_at(des::from_seconds(80.0), &NodeEvent::repair_cb,
                         &ev);
  engine.run();
  const JobRecord* rec = rm.accounting().find(1);
  EXPECT_EQ(rec->state, JobState::kCompleted);
  EXPECT_EQ(rec->requeues, 1u);
  EXPECT_EQ(ticks(rec->start), ticks(80.0));
  return *rec;
}

RmConfig checkpoint_costs() {
  RmConfig cfg = RmConfig::legacy_fcfs();
  cfg.checkpoint_cost = 10.0;  // delta
  cfg.restart_cost = 5.0;      // R
  return cfg;
}

TEST(FaultAware, CheckpointedJobResumesFromLastCheckpoint) {
  des::Engine engine;
  ResourceManager rm(engine, 4, checkpoint_costs());
  rm.submit(whole_machine_job(/*tau=*/20.0));  // 100 s of work runs 150 s
  const JobRecord& rec = crash_at_70(engine, rm, 2);
  // Killed at 70 s: two (tau + delta) = 30 s segments done, so 40 s of
  // work committed.  The restart runs R + 60 s * 1.5 = 95 s.
  EXPECT_EQ(ticks(rec.finish), ticks(175.0));
  // Lost per node: 70 - 40 = 30 s of the killed run, plus the final run's
  // 95 - 60 = 35 s of restart and checkpoints.
  EXPECT_DOUBLE_EQ(rec.wasted_node_seconds, 4 * (30.0 + 35.0));
}

TEST(FaultAware, RestartWithoutCheckpointsRedoesEverything) {
  des::Engine engine;
  ResourceManager rm(engine, 4, checkpoint_costs());
  rm.submit(whole_machine_job(/*tau=*/0.0));
  const JobRecord& rec = crash_at_70(engine, rm, 0);
  EXPECT_EQ(ticks(rec.finish), ticks(185.0));  // 80 + R + 100
  EXPECT_DOUBLE_EQ(rec.wasted_node_seconds, 4 * (70.0 + 5.0));
}

std::vector<JobSpec> small_trace(std::size_t jobs, double interarrival,
                                 std::uint64_t seed,
                                 double min_runtime = 600.0,
                                 double max_runtime = 4.0 * 3600.0) {
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = jobs;
  cfg.users = 1;
  cfg.accounts = 1;
  cfg.max_width_exp = 5;  // <= 32 nodes
  cfg.mean_interarrival = interarrival;
  cfg.min_runtime = min_runtime;
  cfg.max_runtime = max_runtime;
  return workload::make_multi_user_trace(cfg, seed);
}

RmConfig easy_with_checkpoint_costs() {
  RmConfig cfg = RmConfig::legacy_fcfs();
  cfg.backfill = true;
  cfg.backfill_interval = 0.0;
  cfg.checkpoint_cost = 300.0;
  cfg.restart_cost = 120.0;
  return cfg;
}

struct FailingRun {
  ResourceManager::Summary summary;
  std::uint64_t failures = 0;
  double useful = 0.0;        ///< node-seconds of the trace's work
  double wasted = 0.0;        ///< lost progress + checkpoints + restarts
  double goodput = 0.0;       ///< useful / capacity
  double utilization = 0.0;   ///< (useful + wasted) / capacity
  std::uint64_t fingerprint = 0;
};

/// EASY backfill on `nodes` nodes that crash per an exponential node MTBF
/// for 30 days past the last submission, each repaired an hour later.
/// With `checkpointing`, each job takes the Daly interval of its own
/// width-scaled MTBF.
FailingRun run_failing(const std::vector<JobSpec>& specs, std::size_t nodes,
                       double node_mtbf, bool checkpointing) {
  des::Engine engine;
  fabric::Crossbar topo(nodes);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  const RmConfig cfg = easy_with_checkpoint_costs();
  ResourceManager rm(engine, nodes, cfg);
  rm.attach_injector(injector);

  FailingRun out;
  double last_submit = 0.0;
  for (JobSpec s : specs) {
    if (checkpointing) {
      fault::CheckpointConfig cc;
      cc.checkpoint_cost = cfg.checkpoint_cost;
      cc.restart_cost = cfg.restart_cost;
      cc.system_mtbf = fault::system_mtbf_exponential(node_mtbf, s.width);
      s.checkpoint_interval = fault::daly_interval(cc);
    }
    out.useful += static_cast<double>(s.width) * s.runtime;
    last_submit = std::max(last_submit, s.submit);
    rm.submit(s);
  }
  fault::FailureTimeline timeline(fault::FailureModel::exponential(node_mtbf),
                                  nodes, 2002);
  injector.load_node_timeline(timeline, last_submit + 30 * 86400.0, 3600.0);
  engine.run();

  out.summary = rm.summary();
  out.failures = injector.crashes();
  out.wasted = rm.accounting().totals().wasted_node_seconds;
  const double capacity = static_cast<double>(nodes) * out.summary.makespan;
  out.goodput = out.useful / capacity;
  out.utilization = (out.useful + out.wasted) / capacity;
  out.fingerprint = rm.accounting().fingerprint();
  return out;
}

TEST(FaultAware, NoFailuresMatchesPlainScheduling) {
  // With an astronomically reliable machine the run reduces to plain EASY
  // backfill: zero kills, no waste, the very same ledger.
  const auto specs = small_trace(300, 400.0, 1);
  const FailingRun m = run_failing(specs, 64, 1e15, false);
  EXPECT_EQ(m.failures, 0u);
  EXPECT_EQ(m.summary.requeues, 0u);
  EXPECT_EQ(m.summary.completed, 300u);
  EXPECT_EQ(m.wasted, 0.0);

  des::Engine engine;
  ResourceManager plain(engine, 64, easy_with_checkpoint_costs());
  for (const JobSpec& s : specs) plain.submit(s);
  engine.run();
  EXPECT_EQ(m.fingerprint, plain.accounting().fingerprint());
}

TEST(FaultAware, AllJobsEventuallyComplete) {
  // Aggressive: monthly node failures.
  const FailingRun m =
      run_failing(small_trace(200, 500.0, 2), 64, 30.0 * 86400.0, false);
  EXPECT_EQ(m.summary.completed, 200u);
  EXPECT_GT(m.failures, 0u);
  EXPECT_GT(m.goodput, 0.0);
  EXPECT_LE(m.goodput, 1.0);
}

TEST(FaultAware, FailuresCreateWaste) {
  const FailingRun m =
      run_failing(small_trace(200, 500.0, 3), 64, 20.0 * 86400.0, false);
  EXPECT_GT(m.summary.requeues, 0u);
  EXPECT_GT(m.wasted, 0.0);
  EXPECT_LT(m.goodput, m.utilization);
}

TEST(FaultAware, CheckpointingImprovesGoodputUnderHeavyFailures) {
  // Long jobs + failing nodes (~1 failure/day across the machine):
  // restart-from-scratch hemorrhages work; Daly checkpointing recovers
  // most of it.
  const auto specs = small_trace(120, 1500.0, 4, 6.0 * 3600.0, 24.0 * 3600.0);
  const FailingRun naked = run_failing(specs, 64, 60.0 * 86400.0, false);
  const FailingRun ckpt = run_failing(specs, 64, 60.0 * 86400.0, true);
  EXPECT_GT(naked.summary.requeues, 0u);
  EXPECT_GT(ckpt.goodput, naked.goodput);
  EXPECT_LT(ckpt.wasted, naked.wasted);
}

TEST(FaultAware, DeterministicForSeed) {
  const auto specs = small_trace(100, 600.0, 5);
  const FailingRun a = run_failing(specs, 32, 10.0 * 86400.0, true);
  const FailingRun b = run_failing(specs, 32, 10.0 * 86400.0, true);
  EXPECT_GT(a.summary.requeues, 0u);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.summary.requeues, b.summary.requeues);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(FaultAware, RejectsOversizedJob) {
  JobSpec s = whole_machine_job(0.0);
  s.width = 100;
  EXPECT_THROW(run_failing({s}, 4, 1e15, false), support::ContractViolation);
}

}  // namespace
}  // namespace polaris::rm
