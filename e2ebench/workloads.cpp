// The four canonical workloads.  Each builds its inputs from the seed,
// constructs its part of the stack through public APIs, runs it, and
// checks the simulated outputs.  A traced round (ctx.traced()) also reads
// every layer's stats accessors and replays the lower layers alone.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "e2e.hpp"
#include "polaris/coll/algorithms.hpp"
#include "polaris/des/engine.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/pdes/engine.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/serve/serve.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/support/rng.hpp"
#include "polaris/workload/apps.hpp"
#include "polaris/workload/job_mix.hpp"

namespace e2e {

Sizes Sizes::full() {
  Sizes s;
  s.cg_iters = 100;
  s.cg_warm_iters = 20;
  s.serve_duration_s = 0.15;
  s.serve_warmup_s = 0.01;
  s.pdes_grid = 256;
  s.pdes_iters = 1;
  s.rm_jobs = 25'000;
  return s;
}

Sizes Sizes::tiny() {
  Sizes s;
  s.cg_iters = 20;
  s.cg_warm_iters = 2;
  s.serve_duration_s = 0.005;
  s.serve_warmup_s = 0.001;
  s.pdes_grid = 32;
  s.pdes_iters = 1;
  s.rm_jobs = 2000;
  return s;
}

obs::TrackId Timeline::track(const char* layer) {
  for (const auto& [name, id] : tracks_) {
    if (name == layer) return id;
  }
  const obs::TrackId id = tracer_->add_track("e2ebench", layer);
  tracks_.emplace_back(layer, id);
  return id;
}

void Round::fail_ops(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed += n;
  failures.push_back(what + " (" + std::to_string(n) + ")");
}

void Round::print(const std::string& name, std::uint64_t v) {
  fingerprint.emplace_back(name, std::to_string(v));
}

void Round::print(const std::string& name, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  fingerprint.emplace_back(name, buf);
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// `count` distinct hosts of `hosts`, drawn from the seed.
std::vector<fabric::NodeId> draw_hosts(std::size_t hosts, std::size_t count,
                                       std::uint64_t seed) {
  std::vector<fabric::NodeId> all(hosts);
  std::iota(all.begin(), all.end(), fabric::NodeId{0});
  support::Random rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(hosts - 1)));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

void note_des(Round& r, const des::EngineStats& before,
              const des::EngineStats& after) {
  r.note("des.events", static_cast<double>(after.executed - before.executed));
  r.note("des.scheduled",
         static_cast<double>(after.scheduled - before.scheduled));
  r.note("des.cancelled_skipped",
         static_cast<double>(after.cancelled_skipped -
                             before.cancelled_skipped));
  r.note("des.max_queue_depth", static_cast<double>(after.max_queue_depth));
  r.note("des.pool_capacity", static_cast<double>(after.pool_capacity));
  r.note("des.sbo_misses",
         static_cast<double>(after.sbo_misses - before.sbo_misses));
  r.note("des.events_per_s",
         ratio(static_cast<double>(after.executed - before.executed), r.run_s));
}

fabric::NetworkStats net_delta(const fabric::NetworkStats& before,
                               const fabric::NetworkStats& after) {
  fabric::NetworkStats d = after;
  d.messages -= before.messages;
  d.bytes -= before.bytes;
  d.packets -= before.packets;
  d.messages_bypassed -= before.messages_bypassed;
  d.messages_walked -= before.messages_walked;
  d.flights_materialized -= before.flights_materialized;
  d.walker_hop_events -= before.walker_hop_events;
  d.messages_dropped -= before.messages_dropped;
  return d;
}

void note_fabric(Round& r, const fabric::NetworkStats& d, double build_s) {
  r.note("fabric.messages", static_cast<double>(d.messages));
  r.note("fabric.packets", static_cast<double>(d.packets));
  r.note("fabric.bypass_rate", d.bypass_rate());
  r.note("fabric.walker_hop_events", static_cast<double>(d.walker_hop_events));
  r.note("fabric.flights_materialized",
         static_cast<double>(d.flights_materialized));
  r.note("fabric.topology_build_s", build_s);
}

/// Replays des and fabric alone; returns their combined cost, with the
/// fabric replay's own engine events charged to des rather than twice.
double replay_des_fabric(Round& r, Timeline& tl, std::uint64_t events,
                         std::size_t depth, const fabric::Topology& topo,
                         const fabric::FabricParams& params,
                         std::span<const fabric::NodeId> endpoints,
                         const fabric::NetworkStats& d) {
  Replay dr, fr;
  tl.time("des", "replay", [&] { dr = replay_des(events, depth); });
  r.note("des.replay_ns_per_event", dr.ns_per_op);
  const std::uint64_t mean_bytes = d.messages ? d.bytes / d.messages : 0;
  tl.time("fabric", "replay", [&] {
    fr = replay_fabric(topo, params, endpoints, d.messages, mean_bytes);
  });
  r.note("fabric.replay_ns_per_msg", fr.ns_per_op);
  r.note("fabric.replay_bypass_rate", fr.bypass_rate);
  const double fabric_self = std::max(
      0.0, fr.seconds - static_cast<double>(fr.events) * dr.ns_per_op * 1e-9);
  return static_cast<double>(events) * dr.ns_per_op * 1e-9 + fabric_self;
}

// -- simrt_cg ----------------------------------------------------------------

/// Everything simrt_cg reads from the stack's stats accessors.
struct SimrtSnapshot {
  des::EngineStats des;
  fabric::NetworkStats net;
  msg::MatchStats match;  ///< summed; depths are the max over ranks
  std::uint64_t eager = 0, rendezvous = 0;
  std::size_t max_held = 0, request_pool = 0;
  std::uint64_t launched = 0, finished = 0, drops = 0;
};

SimrtSnapshot snapshot(simrt::SimWorld& w) {
  SimrtSnapshot s;
  s.des = w.engine().stats();
  s.net = w.network().stats();
  for (std::size_t i = 0; i < w.ranks(); ++i) {
    const simrt::SimComm& c = w.comm(i);
    const msg::MatchStats& m = c.match_stats();
    s.match.posted += m.posted;
    s.match.arrived += m.arrived;
    s.match.matched_posted += m.matched_posted;
    s.match.matched_unexpected += m.matched_unexpected;
    s.match.max_posted_depth =
        std::max(s.match.max_posted_depth, m.max_posted_depth);
    s.match.max_unexpected_depth =
        std::max(s.match.max_unexpected_depth, m.max_unexpected_depth);
    s.eager += c.eager_count();
    s.rendezvous += c.rendezvous_count();
    s.max_held = std::max(s.max_held, c.max_held_depth());
    s.request_pool += c.request_pool_capacity();
  }
  s.launched = w.ranks_launched();
  s.finished = w.ranks_finished();
  s.drops = w.msg_drops();
  return s;
}

constexpr std::size_t kSimrtRanks = 64;

Round run_simrt_cg(const Context& ctx) {
  Round r;
  Timeline& tl = ctx.timeline;
  const std::size_t iters = ctx.sizes.cg_iters;
  workload::AppResult app;
  const auto program = [&](std::size_t n) {
    workload::CgConfig cfg;
    cfg.iterations = n;
    return workload::make_cg(cfg, kSimrtRanks, &app);
  };

  // -- set-up: inputs, topology, world, warm-up launch ----------------------
  std::vector<fabric::NodeId> hosts;
  std::unique_ptr<fabric::Topology> topo;
  std::unique_ptr<simrt::SimWorld> world;
  const Timeline::Mark t_setup = tl.mark();
  // The seed draws the placement: 64 of the fat tree's 128 hosts.
  tl.time("workload", "inputs", [&] {
    hosts = draw_hosts(128, kSimrtRanks, ctx.seed);
  });
  const double topo_s = tl.time("fabric", "topology_build", [&] {
    topo = std::make_unique<fabric::FatTree>(8);
  });
  const double world_s = tl.time("simrt", "world_build", [&] {
    world = std::make_unique<simrt::SimWorld>(
        kSimrtRanks, fabric::fabrics::myrinet2000(), std::move(topo));
    world->set_placement(hosts);
    if (ctx.metrics) world->attach_metrics(*ctx.metrics);
  });
  const double warm_s = tl.time("simrt", "warm_up", [&] {
    world->launch(program(ctx.sizes.cg_warm_iters));
    world->run();
  });
  r.setup_s = tl.since("simrt", "setup", t_setup);

  // -- timed phase -----------------------------------------------------------
  const SimrtSnapshot before = snapshot(*world);
  r.run_s = tl.time("simrt", "run", [&] {
    world->launch(program(iters));
    world->run();
  });

  // -- extraction and checks -------------------------------------------------
  const Timeline::Mark t_extract = tl.mark();
  const SimrtSnapshot after = snapshot(*world);
  const fabric::NetworkStats net = net_delta(before.net, after.net);
  const std::uint64_t posted = after.match.posted - before.match.posted;
  const std::uint64_t arrived = after.match.arrived - before.match.arrived;
  const std::uint64_t matched =
      (after.match.matched_posted - before.match.matched_posted) +
      (after.match.matched_unexpected - before.match.matched_unexpected);
  const std::uint64_t launched = after.launched - before.launched;
  r.units = static_cast<double>(kSimrtRanks * iters);
  r.attempted = launched + net.messages;
  r.fail_ops(after.launched - after.finished, "ranks unfinished");
  r.fail_ops(after.drops, "messages dropped");
  r.fail_ops(posted - std::min(posted, matched), "posted receives unmatched");
  r.fail_ops(arrived - std::min(arrived, matched), "arrivals unmatched");
  r.expect(launched == kSimrtRanks, "timed launch spawned every rank");
  r.print("sim_end_ticks", static_cast<std::uint64_t>(world->engine().now()));
  r.print("app_elapsed_s", app.elapsed);
  r.print("des.events", after.des.executed - before.des.executed);
  r.print("fabric.messages", net.messages);
  r.print("fabric.packets", net.packets);
  r.print("msg.posted", posted);
  r.extract_s = tl.since("simrt", "extract", t_extract);
  if (!ctx.traced()) return r;

  // -- per-layer ledger (traced round) ---------------------------------------
  note_des(r, before.des, after.des);
  note_fabric(r, net, topo_s);
  const double unexpected_share = ratio(
      static_cast<double>(after.match.matched_unexpected -
                          before.match.matched_unexpected),
      static_cast<double>(posted));
  r.note("msg.posted", static_cast<double>(posted));
  r.note("msg.unexpected_share", unexpected_share);
  r.note("msg.max_posted_depth",
         static_cast<double>(after.match.max_posted_depth));
  r.note("msg.max_unexpected_depth",
         static_cast<double>(after.match.max_unexpected_depth));
  r.note("simrt.eager", static_cast<double>(after.eager - before.eager));
  r.note("simrt.rendezvous",
         static_cast<double>(after.rendezvous - before.rendezvous));
  r.note("simrt.max_held_depth", static_cast<double>(after.max_held));
  r.note("simrt.request_pool_capacity",
         static_cast<double>(after.request_pool));
  r.note("simrt.world_build_s", world_s);
  r.note("simrt.warm_s", warm_s);
  // make_cg issues two 16-byte allreduces per iteration; the world hands
  // every rank the same memoized schedule.
  const coll::Schedule& s =
      world->collective_schedule(coll::Collective::kAllreduce, 16, 0);
  std::uint64_t sends = 0;
  for (const auto& steps : s.per_rank) {
    for (const coll::CommStep& step : steps) sends += step.has_send() ? 1 : 0;
  }
  const std::uint64_t calls = 2 * iters;
  r.note("coll.allreduce_calls", static_cast<double>(calls));
  r.note("coll.allreduce_msgs", static_cast<double>(calls * sends));
  const double lower = replay_des_fabric(
      r, tl, after.des.executed - before.des.executed,
      after.des.max_queue_depth, world->network().topology(), world->params(),
      hosts, net);
  Replay mr;
  tl.time("msg", "replay", [&] {
    mr = replay_msg(posted, unexpected_share, after.match.max_posted_depth);
  });
  r.note("msg.replay_ns_per_op", mr.ns_per_op);
  r.note("simrt.est_self_s", r.run_s - lower - mr.seconds);
  return r;
}

// -- serve_po2c --------------------------------------------------------------

Round run_serve_po2c(const Context& ctx) {
  Round r;
  Timeline& tl = ctx.timeline;
  constexpr std::size_t kFrontends = 4;
  constexpr std::size_t kShards = 16;
  constexpr double kServiceMean = 10e-6;
  constexpr double kRho = 0.9;

  serve::ServeConfig cfg;
  cfg.frontends = kFrontends;
  cfg.shards = kShards;
  cfg.service_mean_s = kServiceMean;
  cfg.request_bytes = 128;
  cfg.response_bytes = 128;
  cfg.arrival = support::ArrivalSpec::poisson(
      kRho * static_cast<double>(kShards) / kServiceMean /
      static_cast<double>(kFrontends));
  cfg.lb = serve::LbPolicy::kPo2c;
  cfg.fabric = fabric::fabrics::myrinet2000();
  cfg.duration_s = ctx.sizes.serve_duration_s;
  cfg.warmup_s = ctx.sizes.serve_warmup_s;
  cfg.seed = ctx.seed;

  std::unique_ptr<fabric::Topology> topo;
  std::unique_ptr<serve::ServeSim> sim;
  const Timeline::Mark t_setup = tl.mark();
  const double topo_s = tl.time("fabric", "topology_build", [&] {
    topo = std::make_unique<fabric::Crossbar>(kFrontends + kShards);
  });
  const double build_s = tl.time("serve", "build", [&] {
    sim = std::make_unique<serve::ServeSim>(cfg, std::move(topo));
  });
  r.setup_s = tl.since("serve", "setup", t_setup);

  serve::ServeResult res;
  r.run_s = tl.time("serve", "run", [&] { res = sim->run(); });

  const Timeline::Mark t_extract = tl.mark();
  const des::EngineStats es = sim->engine().stats();
  const fabric::NetworkStats& net = sim->network().stats();
  r.units = static_cast<double>(res.completed);
  r.attempted = res.offered;
  r.fail_ops(res.dropped, "requests dropped");
  r.fail_ops(res.rejected, "requests rejected");
  r.fail_ops(sim->in_flight(), "requests in flight after drain");
  r.expect(res.offered == res.completed + res.dropped + res.rejected,
           "offered == completed + dropped + rejected");
  r.print("sim_end_ticks", static_cast<std::uint64_t>(sim->engine().now()));
  r.print("serve.offered", res.offered);
  r.print("serve.completed", res.completed);
  r.print("serve.p50_us", res.p50_us());
  r.print("serve.p99_us", res.p99_us());
  r.print("serve.p999_us", res.p999_us());
  r.print("des.events", es.executed);
  r.print("fabric.messages", net.messages);
  r.extract_s = tl.since("serve", "extract", t_extract);
  if (!ctx.traced()) return r;

  serve::export_metrics(res, *ctx.metrics);
  note_des(r, des::EngineStats{}, es);
  note_fabric(r, net, topo_s);
  r.note("serve.offered", static_cast<double>(res.offered));
  r.note("serve.completed", static_cast<double>(res.completed));
  r.note("serve.max_queue_depth", static_cast<double>(res.max_queue_depth));
  r.note("serve.build_s", build_s);
  std::vector<fabric::NodeId> endpoints;
  for (std::size_t f = 0; f < kFrontends; ++f) {
    endpoints.push_back(sim->frontend_node(f));
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    endpoints.push_back(sim->shard_node(s));
  }
  const double lower =
      replay_des_fabric(r, tl, es.executed, es.max_queue_depth,
                        sim->topology(), cfg.fabric, endpoints, net);
  r.note("serve.est_self_s", r.run_s - lower);
  return r;
}

// -- pdes_cg -----------------------------------------------------------------

Round run_pdes_cg(const Context& ctx) {
  Round r;
  Timeline& tl = ctx.timeline;
  pdes::Config cfg;
  cfg.workload.kind = pdes::AppKind::kCg;
  cfg.workload.grid_w = cfg.workload.grid_h = ctx.sizes.pdes_grid;
  cfg.workload.iters = ctx.sizes.pdes_iters;
  cfg.workload.jitter = true;
  cfg.workload.seed = ctx.seed;
  cfg.shards = kPdesShards;
  cfg.workers = kPdesWorkers;
  const std::uint64_t ranks = cfg.workload.ranks();

  std::unique_ptr<pdes::ShardedEngine> engine;
  const Timeline::Mark t_setup = tl.mark();
  const double build_s = tl.time("pdes", "build", [&] {
    engine = std::make_unique<pdes::ShardedEngine>(cfg);
  });
  r.setup_s = tl.since("pdes", "setup", t_setup);

  pdes::Result res;
  r.run_s = tl.time("pdes", "run", [&] { res = engine->run(); });

  const Timeline::Mark t_extract = tl.mark();
  r.units = static_cast<double>(ranks * cfg.workload.iters);
  r.attempted = ranks;
  r.fail_ops(ranks - std::min(ranks, res.ranks_ok), "pdes ranks not ok");
  r.fail_ops(res.nacks, "pdes nacks");
  r.expect(res.workers == kPdesWorkers, "pdes ran the requested workers");
  char hash[24];
  std::snprintf(hash, sizeof hash, "0x%016" PRIx64, res.golden_hash);
  r.fingerprint.emplace_back("pdes.golden_hash", hash);
  r.print("pdes.sim_seconds", res.sim_seconds);
  r.print("des.events", res.events);
  r.print("pdes.msgs_cross", res.msgs_cross);
  r.extract_s = tl.since("pdes", "extract", t_extract);
  if (!ctx.traced()) return r;

  pdes::export_metrics(res, *ctx.metrics);
  // The shards' engines are internal: des reports the events they ran and
  // the replay cost of one sequential engine at a shard's mean peak depth.
  const auto depth =
      static_cast<std::size_t>(res.peak_event_nodes / kPdesShards);
  r.note("des.events", static_cast<double>(res.events));
  r.note("des.max_queue_depth", static_cast<double>(depth));
  r.note("des.events_per_s", ratio(static_cast<double>(res.events), r.run_s));
  Replay dr;
  tl.time("des", "replay", [&] { dr = replay_des(res.events, depth); });
  r.note("des.replay_ns_per_event", dr.ns_per_op);
  r.note("pdes.events", static_cast<double>(res.events));
  r.note("pdes.windows", static_cast<double>(res.windows));
  r.note("pdes.msgs_cross", static_cast<double>(res.msgs_cross));
  r.note("pdes.msgs_intra", static_cast<double>(res.msgs_intra));
  r.note("pdes.parks", static_cast<double>(res.parks));
  r.note("pdes.max_shard_busy_s", res.max_shard_busy_s);
  r.note("pdes.sum_busy_s", res.sum_busy_s);
  r.note("pdes.wait_frac",
         1.0 - ratio(res.sum_busy_s,
                     static_cast<double>(res.workers) * r.run_s));
  r.note("pdes.imbalance",
         ratio(res.max_shard_busy_s * static_cast<double>(res.shards),
               res.sum_busy_s));
  r.note("pdes.peak_event_nodes", static_cast<double>(res.peak_event_nodes));
  r.note("pdes.peak_inflight_recs",
         static_cast<double>(res.peak_inflight_recs));
  r.note("pdes.build_s", build_s);
  return r;
}

// -- rm_easy -----------------------------------------------------------------

Round run_rm_easy(const Context& ctx) {
  Round r;
  Timeline& tl = ctx.timeline;
  constexpr std::size_t kNodes = 1024;
  // A burst trace: arrivals far faster than the drain rate, so every
  // decision runs against a deep backlog.
  workload::MultiUserTraceConfig tc;
  tc.jobs = ctx.sizes.rm_jobs;
  tc.users = 32;
  tc.accounts = 4;
  tc.mean_interarrival = 1.0;
  tc.max_width_exp = 6;
  tc.min_runtime = 60.0;
  tc.max_runtime = 3600.0;

  std::vector<rm::JobSpec> specs;
  des::Engine engine;
  std::unique_ptr<rm::ResourceManager> manager;
  const Timeline::Mark t_setup = tl.mark();
  const double gen_s = tl.time("workload", "trace_gen", [&] {
    specs = workload::make_multi_user_trace(tc, ctx.seed);
  });
  tl.time("rm", "build", [&] {
    rm::RmConfig cfg;
    cfg.backfill = true;  // EASY, default rate limit
    manager = std::make_unique<rm::ResourceManager>(engine, kNodes, cfg);
    if (ctx.metrics) manager->attach_metrics(*ctx.metrics);
  });
  const double submit_s = tl.time("rm", "submit", [&] {
    for (const rm::JobSpec& s : specs) manager->submit(s);
  });
  r.setup_s = tl.since("rm", "setup", t_setup);

  r.run_s = tl.time("rm", "run", [&] { engine.run(); });

  const Timeline::Mark t_extract = tl.mark();
  rm::ResourceManager::Summary sum;
  const double summary_s =
      tl.time("rm", "summary", [&] { sum = manager->summary(); });
  const std::uint64_t jobs = specs.size();
  r.units = static_cast<double>(sum.completed);
  r.attempted = jobs;
  r.fail_ops(jobs - std::min<std::uint64_t>(jobs, sum.completed),
             "jobs not completed");
  r.print("sim_end_ticks", static_cast<std::uint64_t>(engine.now()));
  r.print("rm.makespan_s", sum.makespan);
  r.print("rm.accounting_fingerprint", manager->accounting().fingerprint());
  r.print("rm.backfilled", sum.backfilled);
  r.print("des.events", engine.stats().executed);
  r.extract_s = tl.since("rm", "extract", t_extract);
  if (!ctx.traced()) return r;

  const des::EngineStats es = engine.stats();
  note_des(r, des::EngineStats{}, es);
  Replay dr;
  tl.time("des", "replay",
          [&] { dr = replay_des(es.executed, es.max_queue_depth); });
  r.note("des.replay_ns_per_event", dr.ns_per_op);
  r.note("rm.decision_passes", static_cast<double>(manager->decision_passes()));
  r.note("rm.backfill_cycles", static_cast<double>(manager->backfill_cycles()));
  r.note("rm.backfilled", static_cast<double>(sum.backfilled));
  r.note("rm.us_per_pass",
         ratio(r.run_s * 1e6, static_cast<double>(manager->decision_passes())));
  r.note("rm.submit_s", submit_s);
  r.note("rm.summary_s", summary_s);
  r.note("rm.est_self_s", r.run_s - dr.seconds);
  r.note("workload.trace_gen_s", gen_s);
  return r;
}

constexpr LayerMetric kLayerMetrics[] = {
    {"des.events", "count"},
    {"des.scheduled", "count"},
    {"des.cancelled_skipped", "count"},
    {"des.max_queue_depth", "count"},
    {"des.pool_capacity", "count"},
    {"des.sbo_misses", "count"},
    {"des.events_per_s", "1/s"},
    {"des.replay_ns_per_event", "ns"},
    {"fabric.messages", "count"},
    {"fabric.packets", "count"},
    {"fabric.bypass_rate", "1"},
    {"fabric.walker_hop_events", "count"},
    {"fabric.flights_materialized", "count"},
    {"fabric.topology_build_s", "s"},
    {"fabric.replay_ns_per_msg", "ns"},
    {"fabric.replay_bypass_rate", "1"},
    {"msg.posted", "count"},
    {"msg.unexpected_share", "1"},
    {"msg.max_posted_depth", "count"},
    {"msg.max_unexpected_depth", "count"},
    {"msg.replay_ns_per_op", "ns"},
    {"simrt.eager", "count"},
    {"simrt.rendezvous", "count"},
    {"simrt.max_held_depth", "count"},
    {"simrt.request_pool_capacity", "count"},
    {"simrt.world_build_s", "s"},
    {"simrt.warm_s", "s"},
    {"simrt.est_self_s", "s"},
    {"coll.allreduce_calls", "count"},
    {"coll.allreduce_msgs", "count"},
    {"pdes.events", "count"},
    {"pdes.windows", "count"},
    {"pdes.msgs_cross", "count"},
    {"pdes.msgs_intra", "count"},
    {"pdes.parks", "count"},
    {"pdes.max_shard_busy_s", "s"},
    {"pdes.sum_busy_s", "s"},
    {"pdes.wait_frac", "1"},
    {"pdes.imbalance", "1"},
    {"pdes.peak_event_nodes", "count"},
    {"pdes.peak_inflight_recs", "count"},
    {"pdes.build_s", "s"},
    {"serve.offered", "count"},
    {"serve.completed", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.build_s", "s"},
    {"serve.est_self_s", "s"},
    {"rm.decision_passes", "count"},
    {"rm.backfill_cycles", "count"},
    {"rm.backfilled", "count"},
    {"rm.us_per_pass", "us"},
    {"rm.submit_s", "s"},
    {"rm.summary_s", "s"},
    {"rm.est_self_s", "s"},
    {"workload.trace_gen_s", "s"},
    {"obs.trace_overhead_frac", "1"},
    {"host.probe_s", "s"},
};

}  // namespace

std::span<const LayerMetric> layer_metrics() { return kLayerMetrics; }

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"simrt_cg", run_simrt_cg},
      {"serve_po2c", run_serve_po2c},
      {"pdes_cg", run_pdes_cg, true},
      {"rm_easy", run_rm_easy},
  };
  return kWorkloads;
}

}  // namespace e2e
