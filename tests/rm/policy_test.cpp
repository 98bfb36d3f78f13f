// Classic space-sharing policies on the resource manager.
//
// FCFS, SJF (shortest-estimate order), EASY and conservative backfill, as
// bench_f7_scheduler runs them: flat placement, one tier, a backfill cycle
// on every event over the whole queue.  Small hand-built schedules pin
// each policy's rule; synthetic traces check capacity and the headline
// shapes; the F7 golden replays reproduce BENCH_SCHED.json to 1e-9
// relative; the tracer draws a schedule as a Gantt chart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/obs/clock.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/check.hpp"
#include "polaris/workload/job_mix.hpp"

namespace polaris::rm {
namespace {

enum class Policy { kFcfs, kSjf, kEasy, kConservative };

std::string name_of(Policy p) {
  switch (p) {
    case Policy::kFcfs:
      return "fcfs";
    case Policy::kSjf:
      return "sjf";
    case Policy::kEasy:
      return "easy_backfill";
    case Policy::kConservative:
      return "conservative";
  }
  return "unknown";
}

RmConfig config_of(Policy p) {
  RmConfig cfg = RmConfig::legacy_fcfs();
  cfg.backfill_interval = 0.0;
  cfg.backfill_depth = std::numeric_limits<std::uint32_t>::max();
  cfg.backfill = p == Policy::kEasy || p == Policy::kConservative;
  cfg.conservative = p == Policy::kConservative;
  if (p == Policy::kSjf) cfg.order = RmConfig::Order::kShortestEstimate;
  return cfg;
}

JobSpec make_job(JobId id, double submit, double runtime,
                 std::uint32_t width, double estimate = 0.0) {
  JobSpec s;
  s.id = id;
  s.submit = submit;
  s.runtime = runtime;
  s.estimate = estimate > 0.0 ? estimate : runtime;
  s.width = width;
  return s;
}

/// Single-user Feitelson trace, as bench_f7_scheduler draws it.
std::vector<JobSpec> trace(std::size_t jobs, int max_width_exp,
                           double interarrival, std::uint64_t seed) {
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = jobs;
  cfg.users = 1;
  cfg.accounts = 1;
  cfg.max_width_exp = max_width_exp;
  cfg.mean_interarrival = interarrival;
  return workload::make_multi_user_trace(cfg, seed);
}

struct Replay {
  std::vector<JobRecord> jobs;  ///< by id (ids are 0..n-1)
  ResourceManager::Summary summary;
  double utilization = 0.0;  ///< busy / (nodes * (last finish - 1st submit))
};

Replay run(const std::vector<JobSpec>& specs, std::size_t nodes, Policy p) {
  des::Engine engine;
  ResourceManager rm(engine, nodes, config_of(p));
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();
  Replay out{rm.accounting().query({}), rm.summary(), 0.0};
  if (specs.empty()) return out;
  double busy = 0.0, first_submit = specs.front().submit, last_finish = 0.0;
  for (const JobSpec& s : specs) {
    busy += static_cast<double>(s.width) * s.runtime;
    first_submit = std::min(first_submit, s.submit);
    last_finish = std::max(last_finish, out.jobs[s.id].finish);
  }
  out.utilization =
      busy / (static_cast<double>(nodes) * (last_finish - first_submit));
  return out;
}

/// Every job ran, and no two concurrently running jobs exceed the machine.
void check_capacity(const std::vector<JobRecord>& jobs, std::size_t nodes) {
  for (const JobRecord& a : jobs) {
    ASSERT_EQ(a.state, JobState::kCompleted) << "job " << a.id;
    ASSERT_GE(des::from_seconds(a.start), des::from_seconds(a.submit));
    std::size_t used = 0;
    for (const JobRecord& b : jobs) {
      if (b.start <= a.start && a.start < b.finish) used += b.width;
    }
    ASSERT_LE(used, nodes) << "capacity exceeded at t=" << a.start;
  }
}

TEST(Fcfs, RunsJobsInOrderWhenSerial) {
  const Replay r = run({make_job(0, 0, 100, 4), make_job(1, 1, 100, 4),
                        make_job(2, 2, 100, 4)},
                       4, Policy::kFcfs);
  EXPECT_DOUBLE_EQ(r.jobs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 200.0);
}

TEST(Fcfs, ParallelWhenTheyFit) {
  const Replay r =
      run({make_job(0, 0, 100, 2), make_job(1, 0, 100, 2)}, 4, Policy::kFcfs);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 0.0);
  EXPECT_DOUBLE_EQ(r.summary.makespan, 100.0);
}

TEST(Fcfs, HeadOfLineBlocking) {
  // Wide head job blocks a narrow later job even though nodes are free.
  const Replay r = run({make_job(0, 0, 100, 4),   // runs 0-100
                        make_job(1, 1, 100, 4),   // needs all nodes: waits
                        make_job(2, 2, 10, 1)},   // could run but FCFS blocks
                       4, Policy::kFcfs);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 200.0);  // after both wide jobs
}

TEST(EasyBackfill, BackfillsNarrowShortJob) {
  // All 4 nodes are busy until t=100, when the head takes them all: the
  // narrow job has no hole to backfill into and runs after both.
  const Replay r = run({make_job(0, 0, 100, 4), make_job(1, 1, 100, 4),
                        make_job(2, 2, 10, 1)},
                       4, Policy::kEasy);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 200.0);
}

TEST(EasyBackfill, BackfillUsesIdleNodesWithoutDelayingHead) {
  const Replay r = run({make_job(0, 0, 100, 3),   // 3 nodes busy 0-100
                        make_job(1, 1, 100, 4),   // head: must wait for t=100
                        make_job(2, 2, 50, 1)},   // ends at 52 <= 100
                       4, Policy::kEasy);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 2.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);
  EXPECT_EQ(r.summary.backfilled, 1u);
  check_capacity(r.jobs, 4);
}

TEST(EasyBackfill, RefusesBackfillThatWouldDelayHead) {
  // At the shadow (t=100) the head needs all 4 nodes, so extra = 0 and
  // job 2's estimate crosses the shadow: refused.
  const Replay r = run({make_job(0, 0, 100, 3), make_job(1, 1, 100, 4),
                        make_job(2, 2, 500, 1)},
                       4, Policy::kEasy);
  EXPECT_GT(r.jobs[2].start, 99.0);
  check_capacity(r.jobs, 4);
}

TEST(EasyBackfill, BackfillOnExtraNodesMayCrossShadow) {
  const Replay r = run({make_job(0, 0, 100, 2),   // 2 busy, 2 free
                        make_job(1, 1, 100, 3),   // head: waits for t=100
                        make_job(2, 2, 500, 1)},  // extra = 4 - 3 = 1
                       4, Policy::kEasy);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 2.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);  // head NOT delayed
  check_capacity(r.jobs, 4);
}

TEST(Sjf, PrefersShortJobs) {
  const Replay r = run({make_job(0, 0, 100, 4),       // running 0-100
                        make_job(1, 1, 300, 4),       // longest request
                        make_job(2, 2, 10, 4, 50),    // ties with job 3 ...
                        make_job(3, 3, 20, 4, 50)},   // ... and arrived later
                       4, Policy::kSjf);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 100.0);  // short jobs jump the queue
  EXPECT_DOUBLE_EQ(r.jobs[3].start, 110.0);  // ties in arrival order
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 130.0);
  EXPECT_EQ(r.summary.backfilled, 0u);  // nothing was passed over
}

TEST(Sjf, SkipsHeadThatDoesNotFit) {
  const std::vector<JobSpec> specs{
      make_job(0, 0, 100, 3),   // 1 node stays free until 100
      make_job(1, 1, 10, 4),    // shortest, but needs 4 nodes
      make_job(2, 2, 500, 1)};  // longer, fits the idle node
  const Replay r = run(specs, 4, Policy::kSjf);
  // The wide head does not block: job 2 starts on arrival, out of order,
  // and with no reservation it delays job 1 until it ends.
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 2.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 502.0);
  EXPECT_EQ(r.summary.backfilled, 1u);
  EXPECT_DOUBLE_EQ(run(specs, 4, Policy::kFcfs).jobs[2].start, 110.0);
}

TEST(Scheduler, RejectsJobWiderThanCluster) {
  EXPECT_THROW(run({make_job(0, 0, 10, 100)}, 4, Policy::kFcfs),
               support::ContractViolation);
}

TEST(Scheduler, EmptyTraceYieldsZeroMetrics) {
  const Replay r = run({}, 4, Policy::kFcfs);
  EXPECT_EQ(r.summary.jobs, 0u);
  EXPECT_EQ(r.summary.makespan, 0.0);
}

TEST(JobMetrics, WaitAndSlowdown) {
  // Job 1 waits 30 s behind job 0, then runs 50 s.
  const Replay r = run({make_job(0, 100, 30, 1), make_job(1, 100, 50, 1)}, 1,
                       Policy::kFcfs);
  EXPECT_DOUBLE_EQ(r.jobs[1].wait(), 30.0);
  // Bounded slowdowns 1 and 80 / 50.
  EXPECT_DOUBLE_EQ(r.summary.mean_bounded_slowdown, (1.0 + 80.0 / 50.0) / 2);
}

TEST(JobMetrics, BoundedSlowdownUsesTenSecondFloor) {
  // A 1 s job waits 9 s: (9 + 1) / max(1, 10) = 1.0.
  const Replay r =
      run({make_job(0, 0, 9, 1), make_job(1, 0, 1, 1)}, 1, Policy::kFcfs);
  EXPECT_DOUBLE_EQ(r.jobs[1].wait(), 9.0);
  EXPECT_DOUBLE_EQ(r.summary.mean_bounded_slowdown, 1.0);
}

TEST(JobMetrics, BoundedSlowdownIsAtLeastOne) {
  // 5 s / max(5 s, 10 s) would be 0.5; no wait means no slowdown.
  const Replay r = run({make_job(0, 0, 5, 1)}, 4, Policy::kFcfs);
  EXPECT_DOUBLE_EQ(r.summary.mean_bounded_slowdown, 1.0);
}

class PolicyComparison : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyComparison, SyntheticTraceRunsToCompletionWithinCapacity) {
  // Offered load ~0.9 on 128 nodes, jobs up to 64 nodes.
  const Replay r = run(trace(2000, 6, 1250.0, 11), 128, GetParam());
  EXPECT_EQ(r.summary.completed, 2000u);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0 + 1e-9);
  check_capacity(r.jobs, 128);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyComparison,
                         ::testing::Values(Policy::kFcfs, Policy::kSjf,
                                           Policy::kEasy,
                                           Policy::kConservative),
                         [](const auto& info) { return name_of(info.param); });

TEST(PolicyShape, BackfillBeatsFcfsUnderLoad) {
  // The headline scheduler result: at high offered load EASY sustains
  // lower waits and slowdowns than plain FCFS.
  const auto specs = trace(4000, 6, 45.0, 23);  // heavy load on 128 nodes
  const Replay fcfs = run(specs, 128, Policy::kFcfs);
  const Replay easy = run(specs, 128, Policy::kEasy);
  EXPECT_LT(easy.summary.mean_wait, fcfs.summary.mean_wait);
  EXPECT_LT(easy.summary.mean_bounded_slowdown,
            fcfs.summary.mean_bounded_slowdown);
  EXPECT_GE(easy.utilization, fcfs.utilization - 1e-9);
  EXPECT_GT(easy.summary.backfilled, 0u);
}

TEST(Conservative, BackfillsWithoutDelayingAnyReservation) {
  // Same scenario as EASY's idle-node case: conservative must also
  // backfill the narrow job (it delays nobody).
  const Replay r = run({make_job(0, 0, 100, 3), make_job(1, 1, 100, 4),
                        make_job(2, 2, 50, 1)},
                       4, Policy::kConservative);
  EXPECT_DOUBLE_EQ(r.jobs[2].start, 2.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start, 100.0);
  EXPECT_EQ(r.summary.backfilled, 1u);
  check_capacity(r.jobs, 4);
}

TEST(Conservative, RefusesBackfillThatDelaysLaterReservation) {
  // Running job 2 for 500 s on the idle node would push job 1's
  // reservation (t=100) back.
  const Replay r = run({make_job(0, 0, 100, 3), make_job(1, 1, 100, 4),
                        make_job(2, 2, 500, 1)},
                       4, Policy::kConservative);
  EXPECT_GT(r.jobs[2].start, 99.0);
  check_capacity(r.jobs, 4);
}

TEST(Conservative, NeverWorseThanFcfsOnWaits) {
  const auto specs = trace(1500, 6, 1400.0, 31);  // load ~0.8 on 128 nodes
  const Replay fcfs = run(specs, 128, Policy::kFcfs);
  const Replay cons = run(specs, 128, Policy::kConservative);
  EXPECT_LE(cons.summary.mean_wait, fcfs.summary.mean_wait * 1.001);
  EXPECT_GE(cons.utilization, fcfs.utilization - 1e-9);
}

TEST(Conservative, EasyUsuallyBackfillsAtLeastAsMuch) {
  const auto specs = trace(1500, 6, 1400.0, 33);
  const Replay easy = run(specs, 128, Policy::kEasy);
  const Replay cons = run(specs, 128, Policy::kConservative);
  // EASY's weaker guarantee admits more backfills.
  EXPECT_GE(easy.summary.backfilled + 50, cons.summary.backfilled);
}

TEST(Gantt, ExportsScheduledJobsAsSpans) {
  des::Engine engine;
  obs::SimClock clock(engine);
  obs::Tracer tracer(clock);
  ResourceManager rm(engine, 8, RmConfig::legacy_fcfs());
  rm.attach_tracer(tracer);
  rm.submit(make_job(1, 0.0, 10.0, 4));
  rm.submit(make_job(2, 1.0, 12.0, 2));  // outlives job 1: overlaps it
  rm.submit(make_job(3, 2.0, 3.0, 1));
  engine.run();

  std::size_t spans = 0, submits = 0;
  bool found = false;
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    if (ev.kind == obs::EventKind::kSpan) {
      ++spans;
      if (ev.name == "job 2") {
        // Seconds map to simulated nanoseconds.
        EXPECT_EQ(ev.start_ns, 1'000'000'000LL);
        EXPECT_EQ(ev.dur_ns, 12'000'000'000LL);
        found = true;
      }
    } else if (ev.kind == obs::EventKind::kInstant &&
               ev.name.rfind("submit job ", 0) == 0) {
      ++submits;
    }
  }
  EXPECT_EQ(spans, 3u);    // one per completed job
  EXPECT_EQ(submits, 3u);  // one per submission
  EXPECT_TRUE(found);

  // Overlapping jobs render on separate lanes of the one jobs track.
  std::ostringstream os;
  tracer.write_json(os);
  EXPECT_NE(os.str().find("rm ~1"), std::string::npos);
}

// --- F7 golden replays (constants copied from BENCH_SCHED.json) ---

struct Golden {
  double utilization;  ///< < 0: not recorded
  double mean_wait;    ///< < 0: not recorded
  double mean_bsld;
};

void expect_rel(double got, double want, const char* what) {
  EXPECT_LE(std::abs(got - want), 1e-9 * std::abs(want))
      << what << ": got " << got << ", want " << want;
}

void expect_golden(const std::vector<JobSpec>& specs, std::size_t nodes,
                   Policy policy, const Golden& g) {
  const Replay r = run(specs, nodes, policy);
  ASSERT_EQ(r.summary.completed, specs.size());
  if (g.utilization >= 0) expect_rel(r.utilization, g.utilization, "util");
  if (g.mean_wait >= 0) expect_rel(r.summary.mean_wait, g.mean_wait, "wait");
  expect_rel(r.summary.mean_bounded_slowdown, g.mean_bsld, "bsld");
}

struct GridCase {
  std::size_t nodes;
  Policy policy;
  Golden golden;
};

// Printed in test names: without it gtest would dump the struct's bytes,
// padding included.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << c.nodes << " nodes, " << name_of(c.policy);
}

class F7Golden : public ::testing::TestWithParam<GridCase> {};

TEST_P(F7Golden, GridReplayMatchesBench) {
  const GridCase& c = GetParam();
  expect_golden(
      trace(10000, 7, 4400.0 * 128.0 / static_cast<double>(c.nodes), 42),
      c.nodes, c.policy, c.golden);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, F7Golden,
    ::testing::Values(
        GridCase{512, Policy::kFcfs,
                 {0.8117346211182931, 26887.556423123908, 61.944186718087444}},
        GridCase{512, Policy::kSjf,
                 {0.8117346211182931, 3146.1957766259516, 5.105073138574806}},
        GridCase{512, Policy::kEasy,
                 {0.8117346211182931, 6340.255743665114, 12.809975285226928}},
        GridCase{512, Policy::kConservative,
                 {0.8117346211182931, 6648.915686036353, 11.716301479743864}},
        GridCase{1024, Policy::kFcfs,
                 {0.8062408304928833, 6339.301399944498, 15.2597301181175}},
        GridCase{1024, Policy::kSjf,
                 {0.8062408304928833, 1061.2099776939942, 2.440851234188749}},
        GridCase{1024, Policy::kEasy,
                 {0.8062408304928833, 2175.291650970988, 5.077538207650703}},
        GridCase{1024, Policy::kConservative,
                 {0.8062408304928833, 2331.716530851427, 4.665080297372759}}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.nodes) + "_" +
             name_of(info.param.policy);
    });

TEST(F7Golden, LightestSweepLoadMatchesBench) {
  const auto specs = trace(6000, 7, 2650.0, 7);
  expect_rel(workload::offered_load(specs, 256), 0.722947894474779, "load");
  expect_golden(specs, 256, Policy::kFcfs, {-1, -1, 189.53283227247047});
  expect_golden(specs, 256, Policy::kSjf, {-1, -1, 12.773952316993306});
  expect_golden(specs, 256, Policy::kEasy, {-1, -1, 26.068496693182883});
  expect_golden(specs, 256, Policy::kConservative,
                {-1, -1, 24.478676882543365});
}

}  // namespace
}  // namespace polaris::rm
