// D4: live fault injection through the fast data path.
//
// Three experiments, all on the DES fabric (no wall-clock here — these are
// model-validation numbers, not perf numbers):
//
//   1. Detection latency: a heartbeat service over the real fabric watches
//      16 nodes; one crashes.  Measured suspicion lag for the timeout and
//      the phi-accrual detector, each isolated.
//   2. Retry overhead: an 8-rank ring exchange under link outages at
//      falling MTBF.  Slowdown vs the clean run, retries, drops.
//   3. Checkpoint efficiency: a simulated app checkpointing at Daly's
//      interval under injected node crashes.  Measured efficiency must
//      land within a few percent of the first-order analytic curve and of
//      the standalone Monte-Carlo (simulate_efficiency) — the DES app,
//      the closed form, and the sampler all describe the same machine.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "polaris/fault/checkpoint.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/fault/heartbeat.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "report.hpp"

namespace {

using namespace polaris;

// ------------------------------------------------------------ detection

struct DetectionResult {
  double timeout_latency = -1.0;
  double phi_latency = -1.0;
};

double detection_latency(double timeout, double phi_threshold) {
  des::Engine engine;
  fabric::Crossbar topo(16);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  fault::HeartbeatService::Config cfg;
  cfg.period = 0.1;
  cfg.timeout = timeout;
  cfg.phi_threshold = phi_threshold;
  cfg.horizon = 20.0;
  fault::HeartbeatService hb(engine, net, cfg);
  hb.start();
  injector.schedule_node_crash(/*at=*/3.0, /*node=*/5);
  engine.run();
  if (!hb.suspected(5)) return -1.0;
  return hb.suspected_at(5) - injector.downed_at(5);
}

DetectionResult run_detection() {
  DetectionResult r;
  // Isolate each detector by making the other one unreachable.
  r.timeout_latency = detection_latency(/*timeout=*/0.5,
                                        /*phi_threshold=*/1e9);
  r.phi_latency = detection_latency(/*timeout=*/1e9, /*phi_threshold=*/8.0);
  return r;
}

// --------------------------------------------------------- retry overhead

struct RingResult {
  double seconds = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;
};

RingResult run_ring(double link_mtbf) {
  constexpr std::size_t kRanks = 8;
  constexpr int kIters = 200;
  constexpr std::uint64_t kBytes = 64 * 1024;
  simrt::SimWorld world(kRanks, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.max_retries = 8;
  policy.backoff = 0.02;
  policy.backoff_factor = 2.0;
  world.enable_faults(injector, policy);
  if (link_mtbf > 0.0) {
    const fault::FailureModel model =
        fault::FailureModel::exponential(link_mtbf);
    fault::FailureTimeline timeline(
        model, world.network().topology().link_count(), /*seed=*/2026);
    injector.load_link_timeline(timeline, /*horizon=*/60.0,
                                /*repair_after=*/0.05);
  }
  // App completion is measured inside the program: the injector's
  // scheduled outage/repair events run to the timeline horizon and would
  // otherwise inflate world.run()'s elapsed time.
  std::vector<double> done(kRanks, 0.0);
  world.launch([&done](simrt::SimComm& c) -> des::Task<void> {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < kIters; ++i) {
      simrt::SimRequest r = c.irecv(prev, i);
      co_await c.send(next, i, kBytes);
      co_await c.wait(r);
      co_await c.sleep(0.01);  // compute phase between exchanges
    }
    done[static_cast<std::size_t>(c.rank())] = c.now();
  });
  world.run();
  RingResult out;
  for (const double d : done) out.seconds = std::max(out.seconds, d);
  out.retries = world.msg_retries();
  out.drops = world.msg_drops();
  return out;
}

// ----------------------------------------------------- checkpoint efficiency

struct CheckpointResult {
  double measured = 0.0;
  double analytic = 0.0;
  double sampled = 0.0;
  double wall = 0.0;
  std::uint64_t crashes = 0;
};

CheckpointResult run_checkpoint() {
  constexpr std::size_t kRanks = 8;
  constexpr double kNodeMtbf = 8 * 3600.0;  // system MTBF = 3600 s
  constexpr double kDelta = 30.0;
  constexpr double kRestart = 60.0;
  constexpr double kWork = 180000.0;  // 50 h of useful work per rank

  fault::CheckpointConfig cc;
  cc.checkpoint_cost = kDelta;
  cc.restart_cost = kRestart;
  cc.system_mtbf = kNodeMtbf / static_cast<double>(kRanks);
  const double tau = fault::daly_interval(cc);

  simrt::SimWorld world(kRanks, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.max_retries = 8;
  policy.backoff = 5e-4;
  policy.backoff_factor = 2.0;
  world.enable_faults(injector, policy);
  const fault::FailureModel model =
      fault::FailureModel::exponential(kNodeMtbf);
  fault::FailureTimeline timeline(model, kRanks, /*seed=*/7);
  // A crash knocks its node out for a millisecond — long enough to kill
  // every in-flight message and interrupt work_for() on all ranks, short
  // enough that the retry ladder rides the application over it.  The
  // LOST WORK comes from the rollback protocol below, not from the
  // outage duration, exactly as in the checkpoint model.
  injector.load_node_timeline(timeline, /*horizon=*/2.0 * kWork,
                              /*repair_after=*/1e-3);

  // Crash events are pre-scheduled out to the horizon, so the app's
  // finish time is recorded in-program (world.run() would measure the
  // last injector event instead).
  std::vector<double> done(kRanks, 0.0);
  world.launch([&, tau](simrt::SimComm& c) -> des::Task<void> {
    double committed = 0.0;
    std::uint64_t seen = 0;
    while (committed < kWork) {
      const double seg = std::min(tau, kWork - committed);
      co_await injector.work_for(seg);
      co_await c.barrier();
      if (injector.crashes() != seen) {
        // Someone died mid-segment: the whole job rolls back to the last
        // checkpoint.  Discard the segment, wait out the repair, pay R.
        seen = injector.crashes();
        co_await injector.await_all_nodes_up();
        co_await c.sleep(kRestart);
        continue;
      }
      co_await c.sleep(kDelta);  // coordinated checkpoint
      committed += seg;
    }
    done[static_cast<std::size_t>(c.rank())] = c.now();
    co_return;
  });

  world.run();
  CheckpointResult out;
  for (const double d : done) out.wall = std::max(out.wall, d);
  out.measured = kWork / out.wall;
  out.analytic = fault::analytic_efficiency(cc, tau);
  out.sampled = fault::simulate_efficiency(cc, tau, kWork, /*seed=*/7);
  out.crashes = injector.crashes();
  return out;
}

}  // namespace

int main() {
  bench::Report report("bench_d4_fault",
                       "Fault injection through the fast data path: "
                       "detection latency, retry overhead, checkpoint "
                       "efficiency vs Daly");
  report.note_host();

  // 1. Detection latency.
  const DetectionResult det = run_detection();
  std::printf("-- detection latency (crash at t=3.0, period 0.1s)\n");
  std::printf("   timeout detector: %.3f s\n", det.timeout_latency);
  std::printf("   phi detector:     %.3f s\n", det.phi_latency);
  report.add("detection.timeout.latency_s", det.timeout_latency, "s");
  report.add("detection.phi.latency_s", det.phi_latency, "s");

  // 2. Retry overhead at falling link MTBF.
  const RingResult clean = run_ring(0.0);
  std::printf("\n-- ring exchange retry overhead (clean: %.3f s)\n",
              clean.seconds);
  report.add("retry.clean_time_s", clean.seconds, "s");
  std::vector<double> mtbfs = {8.0, 2.0, 0.5};
  bool ok = clean.drops == 0;
  const std::vector<std::string> labels = {"8s", "2s", "500ms"};
  for (std::size_t i = 0; i < mtbfs.size(); ++i) {
    const double mtbf = mtbfs[i];
    const RingResult r = run_ring(mtbf);
    const double overhead =
        100.0 * (r.seconds - clean.seconds) / clean.seconds;
    std::printf("   link MTBF %5.1f s: %.3f s (+%.2f%%), %llu retries, "
                "%llu drops\n",
                mtbf, r.seconds, overhead,
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.drops));
    const std::string prefix = "retry.mtbf_" + labels[i] + ".";
    report.add(prefix + "overhead_pct", overhead, "%");
    report.add(prefix + "retries", static_cast<double>(r.retries), "count");
    report.add(prefix + "drops", static_cast<double>(r.drops), "count");
    if (r.drops != 0) {
      std::cerr << "ERROR: ring exchange dropped messages at MTBF " << mtbf
                << "\n";
      ok = false;
    }
  }

  // 3. Checkpoint efficiency against Daly.
  const CheckpointResult cp = run_checkpoint();
  const double gap_analytic =
      100.0 * (cp.measured - cp.analytic) / cp.analytic;
  const double gap_sampled = 100.0 * (cp.measured - cp.sampled) / cp.sampled;
  std::printf("\n-- checkpoint efficiency at Daly's interval\n");
  std::printf("   measured (DES app): %.4f  (wall %.0f s, %llu crashes)\n",
              cp.measured, cp.wall,
              static_cast<unsigned long long>(cp.crashes));
  std::printf("   analytic:           %.4f  (gap %+.2f%%)\n", cp.analytic,
              gap_analytic);
  std::printf("   monte-carlo:        %.4f  (gap %+.2f%%)\n", cp.sampled,
              gap_sampled);
  report.add("checkpoint.measured_efficiency", cp.measured, "fraction");
  report.add("checkpoint.analytic_efficiency", cp.analytic, "fraction");
  report.add("checkpoint.sampled_efficiency", cp.sampled, "fraction");
  report.add("checkpoint.gap_vs_analytic_pct", gap_analytic, "%");
  report.add("checkpoint.crashes", static_cast<double>(cp.crashes),
             "count");
  report.note("checkpoint.config",
              "8 ranks, node MTBF 8h, delta 30s, R 60s, work 180000s");

  if (!report.write_file("BENCH_FAULT.json")) {
    std::cerr << "warning: could not write BENCH_FAULT.json\n";
  }
  std::cout << "\nWrote BENCH_FAULT.json.\n";

  if (det.timeout_latency < 0.0 || det.phi_latency < 0.0) {
    std::cerr << "ERROR: a detector never suspected the crashed node\n";
    ok = false;
  }
  if (gap_analytic < -5.0 || gap_analytic > 5.0) {
    std::cerr << "ERROR: measured checkpoint efficiency " << cp.measured
              << " deviates more than 5% from analytic " << cp.analytic
              << "\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
