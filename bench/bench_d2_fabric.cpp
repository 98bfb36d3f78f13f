// D2 — fabric data-path throughput: the two-tier packet engine against the
// semaphore-reference model it replaced.
//
// Three sections, each driving fabric::SimNetwork (analytic flights +
// pooled packet walkers) and fabric::ReferenceNetwork (per-packet
// coroutines + per-link semaphores) through the same traffic:
//
//  1. Uncontended ping-pong (the F2 microbenchmark's wire half): serial
//     request/response between a cross-pod host pair.  Every message must
//     take the analytic bypass — one event per message — so the reported
//     bypass rate is asserted at 1.0.
//  2. Contended random traffic on a fat tree: the walker tier against the
//     semaphore tier where congestion is real.
//  3. 1024-host recursive-doubling allreduce (the F4 collective sweep's
//     inner loop): 10 rounds of 1024 simultaneous same-size exchanges on a
//     k=16 fat tree, end-to-end wall time.
//
// Emits BENCH_FABRIC.json.  POLARIS_BENCH_BUDGET_MS shrinks workloads for
// CI smoke runs (default ~2000 ms per section).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/task.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/reference.hpp"
#include "polaris/support/table.hpp"
#include "report.hpp"

namespace {

using namespace polaris;
using fabric::NodeId;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------------- ping-pong

/// Serial request/response: one message in flight at a time, `count`
/// messages total.  Returns wall seconds.
template <class Net>
double run_pingpong(Net& net, NodeId a, NodeId b, std::uint64_t bytes,
                    std::uint64_t count) {
  net.engine().spawn([](Net& n, NodeId x, NodeId y, std::uint64_t sz,
                        std::uint64_t msgs) -> des::Task<void> {
    for (std::uint64_t i = 0; i < msgs; i += 2) {
      co_await n.transfer(x, y, sz);
      co_await n.transfer(y, x, sz);
    }
  }(net, a, b, bytes, count));
  const auto t0 = std::chrono::steady_clock::now();
  net.engine().run();
  return seconds_since(t0);
}

// ------------------------------------------------------ contended traffic

/// `senders` concurrent processes each sending `per_sender` random-pair
/// messages back to back.  Paths collide constantly on the fat tree's
/// shared up/down links.  Returns wall seconds.
template <class Net>
double run_contended(Net& net, std::size_t nodes, std::size_t senders,
                     std::uint64_t per_sender, std::uint64_t bytes) {
  for (std::size_t s = 0; s < senders; ++s) {
    net.engine().spawn([](Net& n, std::uint64_t seed, std::size_t hosts,
                          std::uint64_t msgs,
                          std::uint64_t sz) -> des::Task<void> {
      std::mt19937_64 rng(seed);
      for (std::uint64_t i = 0; i < msgs; ++i) {
        const auto src = static_cast<NodeId>(rng() % hosts);
        auto dst = static_cast<NodeId>(rng() % hosts);
        if (dst == src) dst = static_cast<NodeId>((dst + 1) % hosts);
        co_await n.transfer(src, dst, sz);
      }
    }(net, 1000 + s, nodes, per_sender, bytes));
  }
  const auto t0 = std::chrono::steady_clock::now();
  net.engine().run();
  return seconds_since(t0);
}

// ---------------------------------------------------------- allreduce 1024

/// Recursive-doubling allreduce: log2(nodes) rounds; in round r every host
/// exchanges `bytes` with its partner (rank XOR 2^r).  Rounds are
/// barrier-separated by draining the engine.  Returns wall seconds.
template <class Net>
double run_allreduce(Net& net, std::size_t nodes, std::uint64_t bytes,
                     std::uint64_t reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    for (std::size_t r = 1; r < nodes; r <<= 1) {
      for (std::size_t i = 0; i < nodes; ++i) {
        net.engine().spawn(
            [](Net& n, NodeId s, NodeId d, std::uint64_t sz) -> des::Task<void> {
              co_await n.transfer(s, d, sz);
            }(net, static_cast<NodeId>(i), static_cast<NodeId>(i ^ r), bytes));
      }
      net.engine().run();
    }
  }
  return seconds_since(t0);
}

}  // namespace

int main() {
  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }

  bench::Report report(
      "bench_d2_fabric",
      "Packet-level network data path: two-tier engine (analytic bypass + "
      "pooled walkers) vs the semaphore-reference model, same traffic");
  report.note_host();
  report.note("budget_ms", std::to_string(budget_ms));

  // -- 1. uncontended ping-pong --------------------------------------------
  // Cross-pod pair on a k=4 fat tree: 6 links each way, the deepest
  // uncontended path the small topology offers.
  const fabric::FatTree pp_topo(4);
  const fabric::FabricParams pp_params = fabric::fabrics::myrinet2000();
  // The reference model clears ~100k msgs/s at minimum, so budget_ms*50
  // messages keeps its (slower) side inside the budget.
  const auto pp_count =
      std::max<std::uint64_t>(20'000, static_cast<std::uint64_t>(budget_ms) * 50);

  support::Table t1("D2a: uncontended ping-pong, host 0 <-> 15, fat-tree k=4");
  t1.header({"bytes", "semaphore (msg/s)", "two-tier (msg/s)", "speedup",
             "bypass rate"});
  bool bypass_all = true;
  double pingpong_min_speedup = 1e30;
  for (const std::uint64_t bytes : {64ull, 4096ull, 65536ull}) {
    des::Engine ref_eng;
    fabric::ReferenceNetwork ref(ref_eng, pp_params, pp_topo);
    const double ref_s = run_pingpong(ref, 0, 15, bytes, pp_count);

    des::Engine fast_eng;
    fabric::SimNetwork fast(fast_eng, pp_params, pp_topo);
    const double fast_s = run_pingpong(fast, 0, 15, bytes, pp_count);

    const double ref_rate = static_cast<double>(pp_count) / ref_s;
    const double fast_rate = static_cast<double>(pp_count) / fast_s;
    const double rate = fast.stats().bypass_rate();
    bypass_all = bypass_all && rate == 1.0;
    pingpong_min_speedup = std::min(pingpong_min_speedup, fast_rate / ref_rate);
    t1.add(support::Table::to_cell(static_cast<double>(bytes)),
           support::Table::to_cell(ref_rate),
           support::Table::to_cell(fast_rate),
           support::Table::to_cell(fast_rate / ref_rate),
           support::Table::to_cell(rate));
    const std::string tag = "pingpong." + std::to_string(bytes) + "B.";
    report.add(tag + "semaphore.msgs_per_sec", ref_rate, "msgs/s");
    report.add(tag + "two_tier.msgs_per_sec", fast_rate, "msgs/s");
    report.add(tag + "speedup", fast_rate / ref_rate, "x");
    report.add(tag + "bypass_rate", rate, "fraction");
  }
  t1.print(std::cout);
  report.note("pingpong.messages", std::to_string(pp_count));
  report.add("pingpong.min_speedup", pingpong_min_speedup, "x");
  report.add("pingpong.all_bypassed", bypass_all ? 1.0 : 0.0, "bool");

  // -- 2. contended random traffic ------------------------------------------
  const fabric::FatTree ct_topo(4);
  const std::size_t senders = 32;
  const auto per_sender =
      std::max<std::uint64_t>(500, static_cast<std::uint64_t>(budget_ms) / 2);
  const std::uint64_t ct_bytes = 6000;  // 4 packets at mtu 1500

  des::Engine ct_ref_eng;
  fabric::ReferenceNetwork ct_ref(ct_ref_eng, pp_params, ct_topo);
  const double ct_ref_s =
      run_contended(ct_ref, ct_topo.node_count(), senders, per_sender, ct_bytes);

  des::Engine ct_fast_eng;
  fabric::SimNetwork ct_fast(ct_fast_eng, pp_params, ct_topo);
  const double ct_fast_s = run_contended(ct_fast, ct_topo.node_count(), senders,
                                         per_sender, ct_bytes);

  const double ct_msgs = static_cast<double>(senders * per_sender);
  std::cout << "\n";
  support::Table t2("D2b: contended random traffic, 32 senders, fat-tree k=4");
  t2.header({"model", "msgs/s", "speedup"});
  t2.add("semaphore", support::Table::to_cell(ct_msgs / ct_ref_s),
         support::Table::to_cell(1.0));
  t2.add("two-tier", support::Table::to_cell(ct_msgs / ct_fast_s),
         support::Table::to_cell(ct_ref_s / ct_fast_s));
  t2.print(std::cout);
  report.note("contended.messages",
              std::to_string(senders * per_sender));
  report.add("contended.semaphore.msgs_per_sec", ct_msgs / ct_ref_s, "msgs/s");
  report.add("contended.two_tier.msgs_per_sec", ct_msgs / ct_fast_s, "msgs/s");
  report.add("contended.speedup", ct_ref_s / ct_fast_s, "x");
  report.add("contended.bypass_rate", ct_fast.stats().bypass_rate(),
             "fraction");

  // -- 3. 1024-host allreduce ------------------------------------------------
  const fabric::FatTree ar_topo(16);  // 1024 hosts
  const std::uint64_t ar_bytes = 8192;
  const auto ar_reps = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(budget_ms / 2000.0));

  des::Engine ar_ref_eng;
  fabric::ReferenceNetwork ar_ref(ar_ref_eng, pp_params, ar_topo);
  const double ar_ref_s =
      run_allreduce(ar_ref, ar_topo.node_count(), ar_bytes, ar_reps);

  des::Engine ar_fast_eng;
  fabric::SimNetwork ar_fast(ar_fast_eng, pp_params, ar_topo);
  const double ar_fast_s =
      run_allreduce(ar_fast, ar_topo.node_count(), ar_bytes, ar_reps);

  std::cout << "\n";
  support::Table t3("D2c: recursive-doubling allreduce, 1024 hosts, 8 KiB, "
                    "fat-tree k=16");
  t3.header({"model", "wall (s)", "speedup"});
  t3.add("semaphore", support::Table::to_cell(ar_ref_s),
         support::Table::to_cell(1.0));
  t3.add("two-tier", support::Table::to_cell(ar_fast_s),
         support::Table::to_cell(ar_ref_s / ar_fast_s));
  t3.print(std::cout);
  report.note("allreduce.hosts", "1024");
  report.note("allreduce.bytes", std::to_string(ar_bytes));
  report.note("allreduce.reps", std::to_string(ar_reps));
  report.add("allreduce_1024.semaphore.wall_s", ar_ref_s, "s");
  report.add("allreduce_1024.two_tier.wall_s", ar_fast_s, "s");
  report.add("allreduce_1024.speedup", ar_ref_s / ar_fast_s, "x");
  report.add("allreduce_1024.bypass_rate", ar_fast.stats().bypass_rate(),
             "fraction");

  if (!report.write_file("BENCH_FABRIC.json")) {
    std::cerr << "warning: could not write BENCH_FABRIC.json\n";
  }
  std::cout << "\nWrote BENCH_FABRIC.json.\n";

  if (!bypass_all) {
    std::cerr << "ERROR: uncontended ping-pong did not fully bypass\n";
    return 1;
  }
  return 0;
}
