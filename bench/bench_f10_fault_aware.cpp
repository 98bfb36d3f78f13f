// F10 — Scheduling and fault recovery operating together: goodput of a
// failing machine with and without checkpointing, as scale explodes.
//
// The integrated form of the talk's system-software thesis: at small scale
// the two curves coincide (failures are rare); as the machine grows, the
// no-checkpoint goodput collapses (every kill restarts a long job from
// scratch) while Daly-interval checkpointing gives most of the machine
// back to the users.
//
// rm::ResourceManager runs EASY backfill; a fault::Injector plays node
// crashes from a fault::FailureTimeline into it and repairs each crashed
// node an hour later.
// A job that checkpoints uses the Daly interval of its own width-scaled
// MTBF (it dies when one of *its* nodes dies).
#include <algorithm>
#include <iostream>
#include <limits>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/checkpoint.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/check.hpp"
#include "polaris/support/table.hpp"
#include "polaris/support/units.hpp"
#include "polaris/workload/job_mix.hpp"

namespace {

using namespace polaris;

constexpr double kNodeMtbf = 0.5 * 365 * 86400.0;
constexpr double kRepair = 3600.0;
constexpr double kCheckpointCost = 300.0;  // delta
constexpr double kRestartCost = 120.0;     // R
constexpr double kFailureSlack = 60 * 86400.0;

struct Outcome {
  std::uint64_t failures = 0;
  std::uint64_t kills = 0;
  std::uint64_t completed = 0;
  double goodput = 0.0;          ///< useful node-seconds / capacity
  double waste_per_node = 0.0;   ///< wasted node-seconds / nodes
};

Outcome run(const std::vector<rm::JobSpec>& specs, std::size_t nodes,
            bool checkpointing) {
  rm::RmConfig cfg = rm::RmConfig::legacy_fcfs();
  cfg.backfill = true;
  cfg.backfill_interval = 0.0;
  cfg.backfill_depth = std::numeric_limits<std::uint32_t>::max();
  cfg.checkpoint_cost = kCheckpointCost;
  cfg.restart_cost = kRestartCost;
  des::Engine engine;
  fabric::Crossbar topo(nodes);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  rm::ResourceManager manager(engine, nodes, cfg);
  manager.attach_injector(injector);

  double useful = 0.0, last_submit = 0.0;
  for (rm::JobSpec s : specs) {
    if (checkpointing) {
      fault::CheckpointConfig cc;
      cc.checkpoint_cost = kCheckpointCost;
      cc.restart_cost = kRestartCost;
      cc.system_mtbf = fault::system_mtbf_exponential(kNodeMtbf, s.width);
      s.checkpoint_interval = fault::daly_interval(cc);
    }
    useful += static_cast<double>(s.width) * s.runtime;
    last_submit = std::max(last_submit, s.submit);
    manager.submit(s);
  }
  // The last job ends well within 60 days of the last submission (under
  // 12 days at every size here); crashes past the end hit an idle machine.
  const double horizon = last_submit + kFailureSlack;
  fault::FailureTimeline timeline(fault::FailureModel::exponential(kNodeMtbf),
                                  nodes, 2002);
  injector.load_node_timeline(timeline, horizon, kRepair);
  engine.run();

  const rm::ResourceManager::Summary s = manager.summary();
  POLARIS_CHECK_MSG(s.makespan < horizon, "F10: run outlived its failures");
  Outcome out;
  for (const fault::FaultEvent& ev : injector.history()) {
    if (ev.kind == fault::FaultEvent::Kind::kNodeCrash &&
        ev.time <= s.makespan) {
      ++out.failures;
    }
  }
  out.kills = s.requeues;
  out.completed = s.completed;
  out.goodput = useful / (static_cast<double>(nodes) * s.makespan);
  out.waste_per_node = manager.accounting().totals().wasted_node_seconds /
                       static_cast<double>(nodes);
  return out;
}

}  // namespace

int main() {
  support::Table t("F10: goodput on a failing machine (node MTBF 0.5 y, "
                   "1 h repair, 1-4 day jobs, load ~0.8)");
  t.header({"nodes", "failures", "kills naked", "kills ckpt",
            "goodput naked", "goodput ckpt", "waste/node naked",
            "waste/node ckpt", "completed"});

  for (std::size_t nodes : {64u, 256u, 1024u, 4096u}) {
    workload::MultiUserTraceConfig tc;
    tc.jobs = 600;
    tc.users = 1;
    tc.accounts = 1;
    tc.max_width_exp = 5;  // up to 32-node jobs
    tc.min_runtime = 24.0 * 3600.0;
    tc.max_runtime = 96.0 * 3600.0;
    // Scale arrivals so offered load stays ~0.8 as the machine grows.
    tc.mean_interarrival = 2.75e6 / static_cast<double>(nodes);
    const auto specs = workload::make_multi_user_trace(tc, 77);

    const Outcome naked = run(specs, nodes, false);
    const Outcome ckpt = run(specs, nodes, true);
    t.add(static_cast<unsigned long long>(nodes),
          static_cast<unsigned long long>(naked.failures),
          static_cast<unsigned long long>(naked.kills),
          static_cast<unsigned long long>(ckpt.kills),
          support::Table::to_cell(naked.goodput),
          support::Table::to_cell(ckpt.goodput),
          support::format_time(naked.waste_per_node),
          support::format_time(ckpt.waste_per_node),
          std::to_string(naked.completed) + " / " +
              std::to_string(ckpt.completed));
  }
  t.print(std::cout);

  std::cout << "\nShape: failures scale with node count; without "
               "checkpointing, each kill\nrestarts a day-scale job from "
               "zero and goodput collapses with scale;\nDaly checkpointing "
               "bounds the loss per failure to one interval and holds\n"
               "goodput — the management software carrying the burden, as "
               "the talk says.\n";
  return 0;
}
