// F11: datacenter serving tier — throughput vs p99 at millions of req/s.
//
// The cluster that wins the paper's cost argument also has to win the
// serving argument: a commodity fat tree carrying open-loop request
// traffic lives or dies by its latency tail.  Three chapters:
//
//   1. Load-balancing policy curves (crossbar, 16 shards): offered load
//      sweep per policy (random, round-robin, JSQ, power-of-two-choices),
//      recording throughput and p99/p999.  Near saturation po2c/JSQ must
//      cut p99 by >= 30% vs random — the classic result, reproduced on
//      the packet-level fabric rather than an M/M/k abstraction.  The
//      grid runs under des::SweepRunner: byte-identical output at any
//      worker count.
//   2. Adaptive vs oblivious routing under incast (fat-tree k=4, plus an
//      informational 2-D torus row): every shard sits on a node with the
//      same dst-mod-uplink residue, so deterministic routing piles all
//      request traffic onto ONE edge->agg uplink per pod while its twin
//      idles.  Adaptive (least-occupied equal-cost path) spreads the
//      load and must improve p99 at the same offered rate.
//   3. Shard failure: kill one shard mid-run (fault::Injector), fail
//      over via the balancer, and report the p999 excursion and recovery
//      from the time-bucketed latency timeline.
//
// Writes BENCH_SERVE.json (bench::Report) for CI trend checks.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "polaris/des/sweep.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/serve/serve.hpp"
#include "report.hpp"

namespace {

using namespace polaris;

constexpr std::uint64_t kSeed = 0xF11F11ULL;

double bench_budget_ms() {
  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }
  return budget_ms;
}

// ------------------------------------------------------------- chapter 1

struct LbPoint {
  serve::LbPolicy lb{};
  double rho = 0.0;
  serve::ServeResult r;
};

constexpr serve::LbPolicy kPolicies[] = {
    serve::LbPolicy::kRandom, serve::LbPolicy::kRoundRobin,
    serve::LbPolicy::kJsq, serve::LbPolicy::kPo2c};
constexpr double kRhos[] = {0.5, 0.7, 0.9};

std::vector<LbPoint> run_lb_grid(double duration_s, double warmup_s,
                                 bench::Report& report) {
  constexpr std::size_t kFrontends = 8;
  constexpr std::size_t kShards = 16;
  constexpr double kServiceMean = 10e-6;  // 16 shards -> 1.6M req/s capacity
  const double capacity = static_cast<double>(kShards) / kServiceMean;

  const std::size_t n_pol = std::size(kPolicies);
  const std::size_t n_rho = std::size(kRhos);
  des::SweepRunner runner;
  std::vector<LbPoint> points =
      runner.run(n_pol * n_rho, [&](std::size_t i) {
        LbPoint p;
        p.lb = kPolicies[i / n_rho];
        p.rho = kRhos[i % n_rho];
        serve::ServeConfig cfg;
        cfg.frontends = kFrontends;
        cfg.shards = kShards;
        cfg.service_mean_s = kServiceMean;
        cfg.request_bytes = 128;
        cfg.response_bytes = 128;
        cfg.arrival = support::ArrivalSpec::poisson(
            p.rho * capacity / static_cast<double>(kFrontends));
        cfg.lb = p.lb;
        cfg.fabric = fabric::fabrics::myrinet2000();
        cfg.duration_s = duration_s;
        cfg.warmup_s = warmup_s;
        cfg.seed = des::sweep_seed(kSeed, i);
        serve::ServeSim sim(std::move(cfg));
        p.r = sim.run();
        return p;
      });

  std::printf("-- F11.1: LB policy curves (crossbar, %zu shards, "
              "capacity %.2fM req/s) --\n",
              kShards, capacity * 1e-6);
  std::printf("%-12s %5s %12s %10s %10s %10s\n", "policy", "rho",
              "tput (req/s)", "p50 (us)", "p99 (us)", "p999 (us)");
  for (const LbPoint& p : points) {
    std::printf("%-12s %5.2f %12.0f %10.1f %10.1f %10.1f\n",
                serve::to_string(p.lb), p.rho, p.r.throughput_rps,
                p.r.p50_us(), p.r.p99_us(), p.r.p999_us());
    const std::string base = std::string("lb.") + serve::to_string(p.lb) +
                             ".rho" +
                             std::to_string(static_cast<int>(p.rho * 100));
    report.add(base + ".throughput_rps", p.r.throughput_rps, "req/s");
    report.add(base + ".p99_us", p.r.p99_us(), "us");
    report.add(base + ".p999_us", p.r.p999_us(), "us");
  }
  return points;
}

// ------------------------------------------------------------- chapter 2

serve::ServeResult run_fattree(fabric::RoutingMode mode, double duration_s,
                               double warmup_s, std::uint64_t* rerouted) {
  // k=4 fat tree, 16 hosts.  Front-ends fill pod 0; every shard node id is
  // EVEN, so the oblivious uplink pick (dst % 2) sends every cross-pod
  // request through aggregation switch 0 — one hot uplink per edge switch,
  // its twin idle.  1 KiB requests at ~85% of one uplink's bandwidth make
  // that queue the dominant latency term.
  constexpr std::uint64_t kReqBytes = 1024;
  serve::ServeConfig cfg;
  cfg.frontends = 4;
  cfg.shards = 6;
  cfg.frontend_nodes = {0, 1, 2, 3};
  cfg.shard_nodes = {4, 6, 8, 10, 12, 14};
  cfg.service_mean_s = 5e-6;
  cfg.request_bytes = kReqBytes;
  cfg.response_bytes = 128;
  cfg.fabric = fabric::fabrics::myrinet2000();
  // Two front-ends share each edge switch; size the per-front-end rate so
  // the single oblivious uplink sees ~85% utilization.
  const double rate =
      0.85 * cfg.fabric.link_bw / (2.0 * static_cast<double>(kReqBytes));
  cfg.arrival = support::ArrivalSpec::poisson(rate);
  cfg.lb = serve::LbPolicy::kPo2c;
  cfg.routing = mode;
  cfg.duration_s = duration_s;
  cfg.warmup_s = warmup_s;
  cfg.seed = des::sweep_seed(kSeed, 100);  // same seed both modes
  serve::ServeSim sim(std::move(cfg), std::make_unique<fabric::FatTree>(4));
  serve::ServeResult r = sim.run();
  if (rerouted) *rerouted = r.net.adaptive_rerouted;
  return r;
}

serve::ServeResult run_torus(fabric::RoutingMode mode, double duration_s,
                             double warmup_s) {
  // 4x4 torus, front-ends across row 0, shards across row 2: x-then-y
  // oblivious routing funnels each front-end's traffic down one column;
  // minimal-adaptive may take y first when the column is queued.
  serve::ServeConfig cfg;
  cfg.frontends = 4;
  cfg.shards = 4;
  cfg.frontend_nodes = {0, 1, 2, 3};
  cfg.shard_nodes = {8, 9, 10, 11};
  cfg.service_mean_s = 5e-6;
  cfg.request_bytes = 1024;
  cfg.response_bytes = 128;
  cfg.fabric = fabric::fabrics::myrinet2000();
  cfg.arrival = support::ArrivalSpec::poisson(
      0.5 * cfg.fabric.link_bw / (4.0 * 1024.0));
  cfg.lb = serve::LbPolicy::kRandom;  // random spray -> crossing traffic
  cfg.routing = mode;
  cfg.duration_s = duration_s;
  cfg.warmup_s = warmup_s;
  cfg.seed = des::sweep_seed(kSeed, 200);
  serve::ServeSim sim(std::move(cfg),
                      std::make_unique<fabric::Torus2D>(4, 4));
  return sim.run();
}

// ------------------------------------------------------------- chapter 3

void run_fault_chapter(double duration_s, bench::Report& report) {
  constexpr double kBucket = 10e-3;
  constexpr double kCrashAt = 0.5;   // fractions of duration
  constexpr double kRepairFor = 0.25;
  serve::ServeConfig cfg;
  cfg.frontends = 8;
  cfg.shards = 16;
  cfg.service_mean_s = 10e-6;
  cfg.request_bytes = 128;
  cfg.response_bytes = 128;
  // 90% of the 16-shard capacity: losing one shard pushes the survivors
  // to 96% — the outage window visibly builds queue, then drains.
  cfg.arrival = support::ArrivalSpec::poisson(0.9 * 1.6e6 / 8.0);
  cfg.lb = serve::LbPolicy::kPo2c;
  cfg.fabric = fabric::fabrics::myrinet2000();
  cfg.duration_s = duration_s;
  cfg.warmup_s = 0.0;  // the timeline wants the whole run
  cfg.timeline_bucket_s = kBucket;
  cfg.seed = des::sweep_seed(kSeed, 300);
  serve::ServeSim sim(std::move(cfg));
  const double crash_at = kCrashAt * duration_s;
  sim.injector().schedule_node_crash(
      crash_at, sim.shard_node(0), kRepairFor * duration_s);
  serve::ServeResult r = sim.run();

  std::printf("\n-- F11.3: shard crash at t=%.0fms, repair +%.0fms "
              "(po2c, 16 shards) --\n",
              crash_at * 1e3, kRepairFor * duration_s * 1e3);
  std::printf("%-10s %10s %10s\n", "t (ms)", "p99 (us)", "p999 (us)");
  double steady = 0.0, excursion = 0.0, final_p999 = 0.0;
  for (std::size_t b = 0; b < r.timeline.size(); ++b) {
    const obs::LogHistogram& h = r.timeline[b];
    if (h.count() == 0) continue;
    const double p999 = h.quantile(0.999) * 1e-3;
    std::printf("%-10.0f %10.1f %10.1f\n", b * kBucket * 1e3,
                h.quantile(0.99) * 1e-3, p999);
    const double t0 = static_cast<double>(b) * kBucket;
    if (t0 + kBucket <= crash_at) steady = std::max(steady, p999);
    excursion = std::max(excursion, p999);
    final_p999 = p999;
  }
  std::printf("failovers=%llu dropped=%llu completed=%llu\n",
              static_cast<unsigned long long>(r.failovers),
              static_cast<unsigned long long>(r.dropped),
              static_cast<unsigned long long>(r.completed));
  report.add("fault.steady_p999_us", steady, "us");
  report.add("fault.excursion_p999_us", excursion, "us");
  report.add("fault.final_p999_us", final_p999, "us");
  report.add("fault.failovers", static_cast<double>(r.failovers), "count");
  report.add("fault.dropped", static_cast<double>(r.dropped), "count");
}

}  // namespace

int main() {
  const double budget_ms = bench_budget_ms();
  const bool full = budget_ms >= 1000.0;
  const double duration_s = full ? 0.1 : 0.04;
  const double warmup_s = full ? 0.02 : 0.01;

  bench::Report report("bench_f11_serving",
                       "serving tier: throughput vs p99 per LB policy, "
                       "routing mode, topology; shard-failure tail");
  report.note_host();
  report.note("budget_ms", std::to_string(budget_ms));
  report.note("duration_s", std::to_string(duration_s));

  const std::vector<LbPoint> lb = run_lb_grid(duration_s, warmup_s, report);

  // Chapter 2: identical offered load, oblivious vs adaptive.
  std::uint64_t rerouted = 0;
  const serve::ServeResult ft_obl =
      run_fattree(fabric::RoutingMode::kOblivious, duration_s, warmup_s,
                  nullptr);
  const serve::ServeResult ft_ada = run_fattree(
      fabric::RoutingMode::kAdaptive, duration_s, warmup_s, &rerouted);
  std::printf("\n-- F11.2: incast on fat-tree k=4 (all shards on one "
              "uplink residue) --\n");
  std::printf("%-10s %12s %10s %10s %10s\n", "routing", "tput (req/s)",
              "p50 (us)", "p99 (us)", "p999 (us)");
  std::printf("%-10s %12.0f %10.1f %10.1f %10.1f\n", "oblivious",
              ft_obl.throughput_rps, ft_obl.p50_us(), ft_obl.p99_us(),
              ft_obl.p999_us());
  std::printf("%-10s %12.0f %10.1f %10.1f %10.1f  (rerouted %llu)\n",
              "adaptive", ft_ada.throughput_rps, ft_ada.p50_us(),
              ft_ada.p99_us(), ft_ada.p999_us(),
              static_cast<unsigned long long>(rerouted));
  report.add("route.fattree.oblivious.p99_us", ft_obl.p99_us(), "us");
  report.add("route.fattree.adaptive.p99_us", ft_ada.p99_us(), "us");
  report.add("route.fattree.oblivious.throughput_rps",
             ft_obl.throughput_rps, "req/s");
  report.add("route.fattree.adaptive.throughput_rps", ft_ada.throughput_rps,
             "req/s");
  report.add("route.fattree.adaptive.rerouted",
             static_cast<double>(rerouted), "count");

  const serve::ServeResult t_obl =
      run_torus(fabric::RoutingMode::kOblivious, duration_s, warmup_s);
  const serve::ServeResult t_ada =
      run_torus(fabric::RoutingMode::kAdaptive, duration_s, warmup_s);
  std::printf("torus 4x4: oblivious p99 %.1f us, adaptive p99 %.1f us\n",
              t_obl.p99_us(), t_ada.p99_us());
  report.add("route.torus.oblivious.p99_us", t_obl.p99_us(), "us");
  report.add("route.torus.adaptive.p99_us", t_ada.p99_us(), "us");

  run_fault_chapter(full ? 0.1 : 0.05, report);

  // Inline sanity of the headline claims (CI re-checks from the JSON).
  double random_p99 = 0.0, po2c_p99 = 0.0, jsq_p99 = 0.0;
  for (const LbPoint& p : lb) {
    if (p.rho < 0.89) continue;
    if (p.lb == serve::LbPolicy::kRandom) random_p99 = p.r.p99_us();
    if (p.lb == serve::LbPolicy::kPo2c) po2c_p99 = p.r.p99_us();
    if (p.lb == serve::LbPolicy::kJsq) jsq_p99 = p.r.p99_us();
  }
  std::printf("\nheadlines: po2c/random p99 = %.2f, jsq/random = %.2f, "
              "adaptive/oblivious p99 = %.2f\n",
              po2c_p99 / random_p99, jsq_p99 / random_p99,
              ft_ada.p99_us() / ft_obl.p99_us());

  if (!report.write_file("BENCH_SERVE.json")) {
    std::fprintf(stderr, "failed to write BENCH_SERVE.json\n");
    return 1;
  }
  return 0;
}
