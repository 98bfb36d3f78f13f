// D3 — messaging-core throughput: the bucketed tag matcher against the
// linear reference it replaced, and the pooled simrt in-flight path.
//
// Four sections:
//
//  1. Incast matching: one matcher holding 512 posted receives (64 sources
//     x 8 tags) takes randomized arrivals, each repost keeping the depth
//     constant.  The linear matcher scans ~depth/2 per arrival; the
//     bucketed matcher does one hash lookup.
//  2. Wildcard-heavy receive: 4096 unexpected messages (64 sources x 64
//     tags); posts cycle exact / any-source / any-tag / fully-wild shapes,
//     re-arriving each match to hold the depth.  The linear matcher scans
//     the unexpected queue per post; the bucketed one reads a
//     category-list head.
//  3. Eager steady state: 2-rank simrt ping-pong of eager messages,
//     absolute messages/s through the full protocol + fabric stack, with
//     the allocation-free claim checked by pool-capacity deltas between a
//     warmup run and the measured run.
//  4. CG-pattern churn: 16 ranks on a 4x4 torus, each round posting 4
//     irecvs + 4 isends and wait_all-ing them (the SpMV halo inner loop),
//     same steady-state-allocation check.
//
// Emits BENCH_MSG.json.  POLARIS_BENCH_BUDGET_MS shrinks workloads for CI
// smoke runs (default ~2000 ms per section).  Exits non-zero if the
// matcher speedup falls below 2x or the steady-state phases allocate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "polaris/msg/reference_matcher.hpp"
#include "polaris/msg/tag_matcher.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/support/table.hpp"
#include "report.hpp"

namespace {

using namespace polaris;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------- matcher harness

constexpr int kSources = 64;
constexpr int kTags = 8;
constexpr int kDepth = kSources * kTags;  // one posted recv per (src,tag)

/// Incast: randomized arrivals against a constant-depth posted queue;
/// every arrival matches and is immediately reposted.  Returns wall s.
template <class Matcher>
double run_incast(Matcher& m, const std::vector<std::uint16_t>& order) {
  for (int p = 0; p < kDepth; ++p) {
    m.post_recv(static_cast<msg::RecvId>(p), p % kSources, p / kSources);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::uint16_t p : order) {
    msg::Envelope<int> env;
    env.src = p % kSources;
    env.tag = p / kSources;
    env.bytes = 64;
    env.cookie = p;
    const auto id = m.arrive(std::move(env));
    if (!id) std::abort();  // every arrival must match
    m.post_recv(*id, p % kSources, p / kSources);
  }
  return seconds_since(t0);
}

/// Wildcard-heavy: constant-depth unexpected queue (64 sources x 64 tags);
/// posts cycle the four receive shapes and each match is re-arrived.
/// Returns wall s.
constexpr int kWildTags = 64;
constexpr int kWildDepth = kSources * kWildTags;

template <class Matcher>
double run_wildcard(Matcher& m, const std::vector<std::uint16_t>& order) {
  for (int p = 0; p < kWildDepth; ++p) {
    msg::Envelope<int> env;
    env.src = p % kSources;
    env.tag = p / kSources;
    env.bytes = 64;
    env.cookie = p;
    m.arrive(std::move(env));
  }
  msg::RecvId next_id = kWildDepth;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t n = 0;
  for (const std::uint16_t p : order) {
    int src = p % kSources;
    int tag = p / kSources;
    switch (n++ % 4) {
      case 0: break;                           // exact
      case 1: src = msg::kAnySource; break;
      case 2: tag = msg::kAnyTag; break;
      default:
        src = msg::kAnySource;
        tag = msg::kAnyTag;
        break;
    }
    const auto got = m.post_recv(next_id++, src, tag);
    if (!got) std::abort();  // depth invariant: a match always exists
    msg::Envelope<int> env;
    env.src = got->src;
    env.tag = got->tag;
    env.bytes = 64;
    env.cookie = got->cookie;
    m.arrive(std::move(env));
  }
  return seconds_since(t0);
}

// --------------------------------------------------- steady-state counters

/// Sum of every slab/pool capacity on the simrt hot path: a zero delta
/// across a phase means the phase allocated nothing.
std::uint64_t allocation_odometer(simrt::SimWorld& world) {
  std::uint64_t total = world.inflight_pool_capacity();
  total += world.engine().stats().pool_capacity;
  for (std::size_t r = 0; r < world.ranks(); ++r) {
    total += world.comm(r).matcher_pool_capacity();
    total += world.comm(r).request_pool_capacity();
  }
  return total;
}

}  // namespace

int main() {
  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }

  bench::Report report(
      "bench_d3_msg",
      "Messaging core: bucketed tag matching vs the linear reference, and "
      "the pooled allocation-free simrt in-flight path");
  report.note_host();
  report.note("budget_ms", std::to_string(budget_ms));

  // The linear matcher clears roughly 1M ops/s at depth 512, so budget*500
  // ops keeps its (slower) side inside the per-section budget.
  const auto ops = std::max<std::uint64_t>(
      100'000, static_cast<std::uint64_t>(budget_ms) * 500);
  std::vector<std::uint16_t> order(ops);
  std::mt19937_64 rng(2002);
  for (auto& p : order) p = static_cast<std::uint16_t>(rng() % kDepth);

  // -- 1. incast matching ---------------------------------------------------
  msg::ReferenceTagMatcher<int> inc_ref;
  const double inc_ref_s = run_incast(inc_ref, order);
  msg::TagMatcher<int> inc_fast;
  const double inc_fast_s = run_incast(inc_fast, order);
  const double inc_ref_rate = static_cast<double>(ops) / inc_ref_s;
  const double inc_fast_rate = static_cast<double>(ops) / inc_fast_s;
  const double inc_speedup = inc_fast_rate / inc_ref_rate;

  support::Table t1("D3a: incast matching, 512 posted recvs (64 src x 8 tag)");
  t1.header({"matcher", "arrivals/s", "speedup"});
  t1.add("linear", support::Table::to_cell(inc_ref_rate),
         support::Table::to_cell(1.0));
  t1.add("bucketed", support::Table::to_cell(inc_fast_rate),
         support::Table::to_cell(inc_speedup));
  t1.print(std::cout);
  report.note("matcher.ops", std::to_string(ops));
  report.add("incast.linear.ops_per_sec", inc_ref_rate, "ops/s");
  report.add("incast.bucketed.ops_per_sec", inc_fast_rate, "ops/s");
  report.add("incast.speedup", inc_speedup, "x");

  // -- 2. wildcard-heavy recv -----------------------------------------------
  std::vector<std::uint16_t> wc_order(ops);
  for (auto& p : wc_order) p = static_cast<std::uint16_t>(rng() % kWildDepth);
  msg::ReferenceTagMatcher<int> wc_ref;
  const double wc_ref_s = run_wildcard(wc_ref, wc_order);
  msg::TagMatcher<int> wc_fast;
  const double wc_fast_s = run_wildcard(wc_fast, wc_order);
  const double wc_ref_rate = static_cast<double>(ops) / wc_ref_s;
  const double wc_fast_rate = static_cast<double>(ops) / wc_fast_s;
  const double wc_speedup = wc_fast_rate / wc_ref_rate;

  std::cout << "\n";
  support::Table t2(
      "D3b: wildcard-heavy recv, 4096 unexpected (64 src x 64 tag), "
      "shapes cycled");
  t2.header({"matcher", "recvs/s", "speedup"});
  t2.add("linear", support::Table::to_cell(wc_ref_rate),
         support::Table::to_cell(1.0));
  t2.add("bucketed", support::Table::to_cell(wc_fast_rate),
         support::Table::to_cell(wc_speedup));
  t2.print(std::cout);
  report.add("wildcard.linear.ops_per_sec", wc_ref_rate, "ops/s");
  report.add("wildcard.bucketed.ops_per_sec", wc_fast_rate, "ops/s");
  report.add("wildcard.speedup", wc_speedup, "x");

  // -- 3. eager steady state ------------------------------------------------
  // Warm one run to fill every pool, snapshot the allocation odometer,
  // then measure: the measured run must not grow any slab.
  const auto eager_rounds = std::max<std::uint64_t>(
      20'000, static_cast<std::uint64_t>(budget_ms) * 100);
  simrt::SimWorld eg_world(2, fabric::fabrics::infiniband_4x());
  const auto eager_phase = [&](std::uint64_t rounds) {
    eg_world.launch([rounds](simrt::SimComm& c) -> des::Task<void> {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          co_await c.send(1, 0, 256);
        } else {
          co_await c.recv(0, 0);
        }
      }
    });
    eg_world.run();
  };
  eager_phase(eager_rounds / 10 + 64);  // warmup
  const std::uint64_t eg_before = allocation_odometer(eg_world);
  const auto eg_t0 = std::chrono::steady_clock::now();
  eager_phase(eager_rounds);
  const double eg_s = seconds_since(eg_t0);
  const std::uint64_t eg_allocs = allocation_odometer(eg_world) - eg_before;
  const double eg_rate = static_cast<double>(eager_rounds) / eg_s;

  std::cout << "\n";
  support::Table t3("D3c: eager steady state, 2 ranks, 256 B, infiniband");
  t3.header({"metric", "value"});
  t3.add("messages/s", support::Table::to_cell(eg_rate));
  t3.add("steady-state allocs", support::Table::to_cell(
                                    static_cast<double>(eg_allocs)));
  t3.print(std::cout);
  report.note("eager.rounds", std::to_string(eager_rounds));
  report.add("eager.msgs_per_sec", eg_rate, "msgs/s");
  report.add("eager.steady_state_allocs", static_cast<double>(eg_allocs),
             "count");

  // -- 4. CG-pattern irecv/wait_all churn ------------------------------------
  const auto cg_rounds = std::max<std::uint64_t>(
      500, static_cast<std::uint64_t>(budget_ms) * 3);
  constexpr int kGrid = 4;  // 4x4 torus, 4 neighbors per rank
  simrt::SimWorld cg_world(kGrid * kGrid, fabric::fabrics::myrinet2000());
  const auto cg_phase = [&](std::uint64_t rounds) {
    cg_world.launch([rounds](simrt::SimComm& c) -> des::Task<void> {
      const int x = c.rank() % kGrid;
      const int y = c.rank() / kGrid;
      const int nbr[4] = {
          y * kGrid + (x + 1) % kGrid, y * kGrid + (x + kGrid - 1) % kGrid,
          ((y + 1) % kGrid) * kGrid + x,
          ((y + kGrid - 1) % kGrid) * kGrid + x};
      std::vector<simrt::SimRequest> reqs;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        reqs.clear();
        for (const int n : nbr) reqs.push_back(c.irecv(n, 0));
        for (const int n : nbr) reqs.push_back(c.isend(n, 0, 2048));
        co_await c.wait_all(reqs);
      }
    });
    cg_world.run();
  };
  cg_phase(cg_rounds / 10 + 16);  // warmup
  const std::uint64_t cg_before = allocation_odometer(cg_world);
  const auto cg_t0 = std::chrono::steady_clock::now();
  cg_phase(cg_rounds);
  const double cg_s = seconds_since(cg_t0);
  const std::uint64_t cg_allocs = allocation_odometer(cg_world) - cg_before;
  const double cg_rate = static_cast<double>(cg_rounds) / cg_s;
  const double cg_msg_rate = cg_rate * kGrid * kGrid * 4;

  std::cout << "\n";
  support::Table t4("D3d: CG halo churn, 16 ranks, 4x4 torus, 2 KiB");
  t4.header({"metric", "value"});
  t4.add("rounds/s", support::Table::to_cell(cg_rate));
  t4.add("messages/s", support::Table::to_cell(cg_msg_rate));
  t4.add("steady-state allocs", support::Table::to_cell(
                                    static_cast<double>(cg_allocs)));
  t4.print(std::cout);
  report.note("cg.rounds", std::to_string(cg_rounds));
  report.add("cg.rounds_per_sec", cg_rate, "rounds/s");
  report.add("cg.msgs_per_sec", cg_msg_rate, "msgs/s");
  report.add("cg.steady_state_allocs", static_cast<double>(cg_allocs),
             "count");

  if (!report.write_file("BENCH_MSG.json")) {
    std::cerr << "warning: could not write BENCH_MSG.json\n";
  }
  std::cout << "\nWrote BENCH_MSG.json.\n";

  bool ok = true;
  if (inc_speedup < 2.0) {
    std::cerr << "ERROR: incast speedup " << inc_speedup << " < 2x\n";
    ok = false;
  }
  if (wc_speedup < 2.0) {
    std::cerr << "ERROR: wildcard speedup " << wc_speedup << " < 2x\n";
    ok = false;
  }
  if (eg_allocs != 0) {
    std::cerr << "ERROR: eager steady state allocated (" << eg_allocs
              << ")\n";
    ok = false;
  }
  if (cg_allocs != 0) {
    std::cerr << "ERROR: CG steady state allocated (" << cg_allocs << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
