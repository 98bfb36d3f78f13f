// F7 — Resource management: FCFS vs SJF vs EASY vs conservative backfill.
//
// A 10k-job Feitelson-style synthetic trace replayed on rm::ResourceManager
// under each policy on 128-1024 node machines, plus a load sweep showing
// where backfilling's advantage opens up.  Every policy runs the
// textbook form: flat placement, one queue tier, and a backfill cycle on
// every event over the whole queue (no rate limit, no depth cap).
//
// Every (machine size, policy) replay is independent — trace generation is
// seeded per point — so the grid fans out across a SweepRunner thread
// pool; tables print from the ordered results and are byte-identical at
// any thread count.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/sweep.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/table.hpp"
#include "polaris/support/units.hpp"
#include "polaris/workload/job_mix.hpp"
#include "report.hpp"

namespace {

using namespace polaris;

enum class Policy { kFcfs, kSjf, kEasy, kConservative };
constexpr Policy kPolicies[] = {Policy::kFcfs, Policy::kSjf, Policy::kEasy,
                                Policy::kConservative};

const char* name_of(Policy p) {
  switch (p) {
    case Policy::kFcfs:
      return "fcfs";
    case Policy::kSjf:
      return "sjf";
    case Policy::kEasy:
      return "easy-backfill";
    case Policy::kConservative:
      return "conservative";
  }
  return "?";
}

rm::RmConfig config_of(Policy p) {
  rm::RmConfig cfg = rm::RmConfig::legacy_fcfs();
  cfg.backfill_interval = 0.0;
  cfg.backfill_depth = std::numeric_limits<std::uint32_t>::max();
  cfg.backfill = p == Policy::kEasy || p == Policy::kConservative;
  cfg.conservative = p == Policy::kConservative;
  if (p == Policy::kSjf) cfg.order = rm::RmConfig::Order::kShortestEstimate;
  return cfg;
}

struct Replay {
  double load = 0;
  double utilization = 0;  ///< busy / (nodes * (last finish - first submit))
  rm::ResourceManager::Summary summary;
};

/// Single-user Feitelson trace: `jobs` jobs up to 128 nodes wide.
std::vector<rm::JobSpec> trace(std::size_t jobs, double interarrival,
                               std::uint64_t seed) {
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = jobs;
  cfg.users = 1;
  cfg.accounts = 1;
  cfg.max_width_exp = 7;
  cfg.mean_interarrival = interarrival;
  return workload::make_multi_user_trace(cfg, seed);
}

Replay replay(const std::vector<rm::JobSpec>& specs, std::size_t nodes,
              Policy policy) {
  des::Engine engine;
  rm::ResourceManager manager(engine, nodes, config_of(policy));
  for (const rm::JobSpec& s : specs) manager.submit(s);
  engine.run();

  Replay out;
  out.load = workload::offered_load(specs, nodes);
  out.summary = manager.summary();
  double busy = 0.0, first_submit = specs.front().submit, last_finish = 0.0;
  for (const rm::JobSpec& s : specs) {
    busy += static_cast<double>(s.width) * s.runtime;
    first_submit = std::min(first_submit, s.submit);
    last_finish =
        std::max(last_finish, manager.accounting().find(s.id)->finish);
  }
  out.utilization =
      busy / (static_cast<double>(nodes) * (last_finish - first_submit));
  return out;
}

}  // namespace

int main() {
  bench::Report report("bench_f7_scheduler",
                       "scheduler policy comparison on rm: 10k-job grid "
                       "and load sweep");
  report.note_host();

  support::Table main_t("F7a: 10k-job trace by machine size and policy");
  main_t.header({"nodes", "policy", "load", "utilization", "mean wait",
                 "p95 wait", "mean bsld", "backfilled"});
  const std::vector<std::size_t> machine_sizes{128, 256, 512, 1024};
  struct MainPoint {
    std::size_t nodes;
    Policy policy;
  };
  std::vector<MainPoint> main_grid;
  for (std::size_t nodes : machine_sizes) {
    for (auto policy : kPolicies) main_grid.push_back({nodes, policy});
  }
  des::SweepRunner runner;
  const std::vector<Replay> main_res = runner.map(
      main_grid, [](const MainPoint& pt, std::size_t) {
        // Keep offered load ~0.85 as the machine grows (mean job is ~40
        // nodes x ~3.3 h).
        return replay(trace(10000,
                            4400.0 * 128.0 / static_cast<double>(pt.nodes),
                            42),
                      pt.nodes, pt.policy);
      });
  std::size_t at = 0;
  for (std::size_t nodes : machine_sizes) {
    for (auto policy : kPolicies) {
      const Replay& r = main_res[at++];
      const rm::ResourceManager::Summary& s = r.summary;
      main_t.add(static_cast<unsigned long long>(nodes), name_of(policy),
                 support::Table::to_cell(r.load),
                 support::Table::to_cell(r.utilization),
                 support::format_time(s.mean_wait),
                 support::format_time(s.p95_wait),
                 support::Table::to_cell(s.mean_bounded_slowdown),
                 static_cast<unsigned long long>(s.backfilled));
      const std::string key =
          "grid.n" + std::to_string(nodes) + "." + name_of(policy);
      report.add(key + ".utilization", r.utilization, "fraction");
      report.add(key + ".mean_wait", s.mean_wait, "s");
      report.add(key + ".mean_bsld", s.mean_bounded_slowdown, "x");
    }
  }
  main_t.print(std::cout);

  std::cout << "\n";
  support::Table sweep("F7b: load sweep on 256 nodes — mean bounded "
                       "slowdown");
  sweep.header({"offered load", "fcfs", "sjf", "easy-backfill",
                "conservative"});
  const std::vector<double> interarrivals{2650.0, 2320.0, 2060.0, 1855.0,
                                          1686.0};
  struct SweepPoint {
    double inter;
    Policy policy;
  };
  std::vector<SweepPoint> sweep_grid;
  for (double inter : interarrivals) {
    for (auto policy : kPolicies) sweep_grid.push_back({inter, policy});
  }
  const std::vector<Replay> sweep_res = runner.map(
      sweep_grid, [](const SweepPoint& pt, std::size_t) {
        return replay(trace(6000, pt.inter, 7), 256, pt.policy);
      });
  at = 0;
  for (std::size_t i = 0; i < interarrivals.size(); ++i) {
    std::vector<std::string> row{
        support::Table::to_cell(sweep_res[at].load)};
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      const Replay& r = sweep_res[at++];
      const double bsld = r.summary.mean_bounded_slowdown;
      row.push_back(support::Table::to_cell(bsld));
      report.add("sweep.load" + std::to_string(i) + "." +
                     name_of(kPolicies[p]) + ".mean_bsld",
                 bsld, "x");
      if (p == 0) {
        report.add("sweep.load" + std::to_string(i) + ".offered",
                   r.load, "fraction");
      }
    }
    sweep.row(row);
  }
  sweep.print(std::cout);

  std::cout << "\nShape: EASY backfill sustains markedly lower waits and "
               "bounded slowdown\nthan FCFS at the same utilization, and "
               "the gap widens with offered load\n— the talk's 'resource "
               "management ... high productivity' tooling at work.\n";

  if (!report.write_file("BENCH_SCHED.json")) {
    std::cerr << "warning: could not write BENCH_SCHED.json\n";
  }
  std::cout << "\nWrote BENCH_SCHED.json.\n";
  return 0;
}
