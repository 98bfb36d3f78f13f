// D1 — DES core throughput: the ceiling on every other experiment.
//
// Measures schedule/fire and schedule/cancel event throughput of the pooled
// timer-wheel + 4-ary-heap engine on raw (fn, ctx) events, its one event
// kind, next to an in-file replica of the seed engine (std::priority_queue
// + unordered_set cancellation + a callback wrapper that heap-allocates
// every target) kept as history, plus the coroutine resume rate that bounds
// simulated-rank progress, and the SweepRunner's multi-core scaling on
// independent engine instances.
//
// Emits BENCH_DES.json and BENCH_SWEEP.json in the working directory so
// successive PRs have a recorded perf trajectory.  POLARIS_BENCH_BUDGET_MS
// shrinks the workload for CI smoke runs (default ~2000 ms per section).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/sweep.hpp"
#include "polaris/des/task.hpp"
#include "polaris/support/table.hpp"
#include "report.hpp"

namespace {

using polaris::des::SimTime;

// ------------------------------------------------------ seed-engine replica
//
// Faithful copy of the pre-replacement hot path so the speedup is measured
// against the real baseline, not a strawman: binary heap of events, a
// hash-set consulted (and mutated) per cancel/pop, and one heap allocation
// per scheduled callback.

/// The seed's callback wrapper: unconditional unique_ptr type erasure.
class HeapFunction {
 public:
  HeapFunction() = default;
  template <typename F>
  HeapFunction(F&& f)  // NOLINT(google-explicit-constructor)
      : impl_(std::make_unique<Model<std::decay_t<F>>>(std::forward<F>(f))) {
  }
  HeapFunction(HeapFunction&&) noexcept = default;
  HeapFunction& operator=(HeapFunction&&) noexcept = default;
  void operator()() { impl_->invoke(); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void invoke() = 0;
  };
  template <typename F>
  struct Model final : Concept {
    explicit Model(F f) : fn(std::move(f)) {}
    void invoke() override { fn(); }
    F fn;
  };
  std::unique_ptr<Concept> impl_;
};

class SeedEngine {
 public:
  struct EventId {
    std::uint64_t seq = 0;
  };

  SimTime now() const { return now_; }

  EventId schedule_after(SimTime dt, HeapFunction cb) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(Event{now_ + dt, seq, std::move(cb)});
    return EventId{seq};
  }

  void cancel(EventId id) { cancelled_.insert(id.seq); }

  std::size_t run() {
    std::size_t n = 0;
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (auto it = cancelled_.find(ev.seq); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.t;
      ev.cb();
      ++n;
    }
    return n;
  }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    HeapFunction cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
};

// ------------------------------------------------------------- workloads

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Timer-wheel-style churn on the seed replica: `depth` self-rescheduling
/// timers with mixed short/long deltas keep the queue at a realistic
/// working depth while `events` total events fire.  Returns events/second.
double bench_schedule_fire_seed(std::uint64_t events, std::uint64_t depth) {
  SeedEngine eng;
  std::uint64_t remaining = events;
  std::uint32_t lcg = 0x1234567;
  std::function<void()> tick = [&] {
    if (remaining == 0) return;
    --remaining;
    lcg = lcg * 1664525u + 1013904223u;
    eng.schedule_after(1 + (lcg >> 20), [&] { tick(); });
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    eng.schedule_after(1 + i, [&] { tick(); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  return static_cast<double>(events + depth) / seconds_since(t0);
}

/// The same churn on the engine's raw (fn, ctx) events.  Same LCG, so the
/// same event count as bench_schedule_fire_seed.
double bench_schedule_fire_raw(std::uint64_t events, std::uint64_t depth) {
  struct Churn {
    polaris::des::Engine eng;
    std::uint64_t remaining = 0;
    std::uint32_t lcg = 0x1234567;
    static void tick(void* p) {
      auto* c = static_cast<Churn*>(p);
      if (c->remaining == 0) return;
      --c->remaining;
      c->lcg = c->lcg * 1664525u + 1013904223u;
      c->eng.schedule_raw_after(1 + (c->lcg >> 20), &tick, c);
    }
  };
  Churn c;
  c.remaining = events;
  for (std::uint64_t i = 0; i < depth; ++i) {
    c.eng.schedule_raw_after(1 + static_cast<SimTime>(i), &Churn::tick, &c);
  }
  const auto t0 = std::chrono::steady_clock::now();
  c.eng.run();
  return static_cast<double>(events + depth) / seconds_since(t0);
}

/// Schedules an event that does nothing, on either engine.
SeedEngine::EventId schedule_nop(SeedEngine& eng, SimTime dt) {
  return eng.schedule_after(dt, [] {});
}
polaris::des::EventId schedule_nop(polaris::des::Engine& eng, SimTime dt) {
  return eng.schedule_raw_after(dt, +[](void*) {}, nullptr);
}

/// Schedule bursts and cancel 7/8 of them before they fire (the protocol
/// timeout pattern: almost every timeout is cancelled by the ack).
/// Returns (schedule+cancel+fire) operations per second.
template <typename Engine>
double bench_schedule_cancel(std::uint64_t bursts, std::uint64_t burst) {
  Engine eng;
  std::uint64_t ops = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<decltype(schedule_nop(eng, 0))> ids;
  ids.reserve(burst);
  for (std::uint64_t b = 0; b < bursts; ++b) {
    ids.clear();
    for (std::uint64_t i = 0; i < burst; ++i) {
      ids.push_back(schedule_nop(eng, static_cast<SimTime>(1000 + i)));
    }
    for (std::uint64_t i = 0; i < burst; ++i) {
      if (i % 8 != 0) eng.cancel(ids[i]);
    }
    eng.run();
    ops += 2 * burst;
  }
  return static_cast<double>(ops) / seconds_since(t0);
}

/// Coroutine resume throughput on the real engine: `procs` processes each
/// awaiting `rounds` unit delays.  Returns resumes/second.
double bench_coroutine_resume(std::uint64_t procs, std::uint64_t rounds) {
  polaris::des::Engine eng;
  auto proc = [](polaris::des::Engine& e,
                 std::uint64_t n) -> polaris::des::Task<void> {
    for (std::uint64_t i = 0; i < n; ++i) {
      co_await polaris::des::delay(e, 1);
    }
  };
  for (std::uint64_t p = 0; p < procs; ++p) {
    eng.spawn(proc(eng, rounds));
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  return static_cast<double>(procs * rounds) / seconds_since(t0);
}

// ------------------------------------------------------- sweep scaling

struct SweepOutcome {
  double serial_s = 0;
  double parallel_s = 0;
  std::size_t threads = 0;
  bool identical = false;
};

/// Runs `points` independent engine workloads serially and on a thread
/// pool; results must match exactly (determinism) while wall time drops.
SweepOutcome bench_sweep(std::size_t points, std::uint64_t events_per_point) {
  struct Point {
    polaris::des::Engine eng;
    std::uint64_t remaining = 0;
    std::uint64_t acc = 0;
    std::uint32_t lcg = 0;
    static void tick(void* p) {
      auto* s = static_cast<Point*>(p);
      if (s->remaining == 0) return;
      --s->remaining;
      s->acc += static_cast<std::uint64_t>(s->eng.now());
      s->lcg = s->lcg * 1664525u + 1013904223u;
      s->eng.schedule_raw_after(1 + (s->lcg >> 22), &tick, s);
    }
  };
  auto point = [events_per_point](std::size_t i) {
    Point pt;
    pt.remaining = events_per_point;
    pt.lcg = static_cast<std::uint32_t>(polaris::des::sweep_seed(2002, i));
    pt.eng.schedule_raw_after(1, &Point::tick, &pt);
    pt.eng.run();
    return pt.acc;
  };
  SweepOutcome out;
  const std::size_t hw = polaris::des::SweepRunner::default_threads();
  out.threads = std::max<std::size_t>(2, std::min<std::size_t>(hw, 4));

  const auto t0 = std::chrono::steady_clock::now();
  const auto serial = polaris::des::SweepRunner(1).run(points, point);
  out.serial_s = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  const auto parallel =
      polaris::des::SweepRunner(out.threads).run(points, point);
  out.parallel_s = seconds_since(t1);

  out.identical = serial == parallel;
  return out;
}

}  // namespace

int main() {
  using namespace polaris;

  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }
  // ~2M events/s is a floor even for the seed engine, so budget_ms*2000
  // events keeps each seed-side section within the budget.
  const auto events = static_cast<std::uint64_t>(budget_ms * 2000.0);
  const std::uint64_t depth = 1024;
  const std::uint64_t burst = 1024;
  const std::uint64_t bursts = std::max<std::uint64_t>(1, events / (2 * burst));

  support::Table t("D1: DES core throughput (seed replica vs raw events)");
  t.header({"workload", "seed (Mops/s)", "engine (Mops/s)", "speedup"});

  const double fire_seed = bench_schedule_fire_seed(events, depth);
  const double fire_raw = bench_schedule_fire_raw(events, depth);
  t.add("schedule+fire", support::Table::to_cell(fire_seed / 1e6),
        support::Table::to_cell(fire_raw / 1e6), std::string("-"));

  // Deep queue: the working depth a few-hundred-rank SimWorld sustains.
  // The seed's binary heap pays O(log n) cache-hostile sifts per event
  // here; the wheel stays O(1).
  const std::uint64_t deep = 256 * 1024;
  const double deep_seed = bench_schedule_fire_seed(events, deep);
  const double deep_raw = bench_schedule_fire_raw(events, deep);
  t.add("schedule+fire deep", support::Table::to_cell(deep_seed / 1e6),
        support::Table::to_cell(deep_raw / 1e6), std::string("-"));

  const double cancel_seed = bench_schedule_cancel<SeedEngine>(bursts, burst);
  const double cancel_new =
      bench_schedule_cancel<polaris::des::Engine>(bursts, burst);
  t.add("schedule+cancel", support::Table::to_cell(cancel_seed / 1e6),
        support::Table::to_cell(cancel_new / 1e6),
        support::Table::to_cell(cancel_new / cancel_seed));

  const std::uint64_t procs = 512;
  const std::uint64_t rounds = std::max<std::uint64_t>(1, events / procs);
  const double resume = bench_coroutine_resume(procs, rounds);
  t.add("coroutine resume", std::string("-"),
        support::Table::to_cell(resume / 1e6), std::string("-"));
  t.print(std::cout);
  std::cout << "queue bytes per pending event (node + heap entry): "
            << polaris::des::Engine::kQueuedEventBytes << "\n";

  bench::Report des_report(
      "bench_d1_des_core",
      "DES engine schedule/fire/cancel throughput of the pooled timer-wheel "
      "+ 4-ary-heap engine on raw events, seed-engine replica rows kept as "
      "history, coroutine resume rate and queue bytes per pending event");
  des_report.note_host();
  des_report.note("budget_ms", std::to_string(budget_ms));
  des_report.note("queue_depth", std::to_string(depth));
  des_report.note("deep_queue_depth", std::to_string(deep));
  des_report.add("seed.schedule_fire.events_per_sec", fire_seed, "events/s");
  des_report.add("seed.schedule_fire_deep.events_per_sec", deep_seed,
                 "events/s");
  des_report.add("raw.schedule_fire.events_per_sec", fire_raw, "events/s");
  des_report.add("raw.schedule_fire_deep.events_per_sec", deep_raw,
                 "events/s");
  des_report.add("seed.schedule_cancel.ops_per_sec", cancel_seed, "ops/s");
  des_report.add("pooled.schedule_cancel.ops_per_sec", cancel_new, "ops/s");
  des_report.add("schedule_cancel.speedup", cancel_new / cancel_seed, "x");
  des_report.add("pooled.coroutine_resume.resumes_per_sec", resume,
                 "resumes/s");
  des_report.add("pooled.bytes_per_queued_event",
                 static_cast<double>(polaris::des::Engine::kQueuedEventBytes),
                 "bytes");
  if (!des_report.write_file("BENCH_DES.json")) {
    std::cerr << "warning: could not write BENCH_DES.json\n";
  }

  const std::size_t sweep_points = 16;
  const auto per_point = std::max<std::uint64_t>(10000, events / 16);
  const SweepOutcome sw = bench_sweep(sweep_points, per_point);
  std::cout << "\n";
  support::Table st("D1b: SweepRunner scaling (" +
                    std::to_string(sweep_points) + " independent engines)");
  st.header({"mode", "wall (s)", "speedup", "identical results"});
  st.add("serial", support::Table::to_cell(sw.serial_s),
         support::Table::to_cell(1.0), std::string("-"));
  st.add(std::to_string(sw.threads) + " threads",
         support::Table::to_cell(sw.parallel_s),
         support::Table::to_cell(sw.serial_s / sw.parallel_s),
         sw.identical ? "yes" : "NO (BUG)");
  st.print(std::cout);

  bench::Report sweep_report(
      "bench_d1_des_core",
      "SweepRunner wall-clock scaling over independent engine instances; "
      "parallel results must be identical to serial");
  sweep_report.note_host();
  sweep_report.note("points", std::to_string(sweep_points));
  sweep_report.note("events_per_point", std::to_string(per_point));
  sweep_report.add("sweep.serial.wall_s", sw.serial_s, "s");
  sweep_report.add("sweep.parallel.wall_s", sw.parallel_s, "s");
  sweep_report.add("sweep.parallel.threads",
                   static_cast<double>(sw.threads), "threads");
  sweep_report.add("sweep.speedup", sw.serial_s / sw.parallel_s, "x");
  sweep_report.add("sweep.results_identical", sw.identical ? 1.0 : 0.0,
                   "bool");
  if (!sweep_report.write_file("BENCH_SWEEP.json")) {
    std::cerr << "warning: could not write BENCH_SWEEP.json\n";
  }

  std::cout << "\nWrote BENCH_DES.json and BENCH_SWEEP.json.\n";
  return sw.identical ? 0 : 1;
}
