// Shared types of the end-to-end benchmark binary (polaris_e2e).
//
// A workload is one function that builds its inputs and its simulated
// cluster through the public APIs of the stack, runs it, checks the
// simulated outputs and returns one Round.  Every host-time figure is
// measured here, from outside the program, around calls into a layer's
// public functions; every count is read through a layer's public stats
// accessor after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"

namespace e2e {

// The benchmark speaks to every layer by its module name: des::, fabric::.
using namespace polaris;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Workload sizes.  `full` is what the benchmark measures; `tiny` runs
/// every code path in milliseconds (used by selftest.py).
struct Sizes {
  std::size_t cg_iters = 0;
  std::size_t cg_warm_iters = 0;
  double serve_duration_s = 0.0;
  double serve_warmup_s = 0.0;
  std::size_t pdes_grid = 0;  ///< torus edge; ranks = edge^2
  std::uint32_t pdes_iters = 0;
  std::size_t rm_jobs = 0;

  static Sizes full();
  static Sizes tiny();
};

/// pdes_cg runs exactly this many workers, set explicitly rather than
/// leased from POLARIS_SIM_THREADS.
inline constexpr std::size_t kPdesWorkers = 4;
inline constexpr std::size_t kPdesShards = 8;

/// Host-time spans around calls into the layers.  Always measures; when a
/// tracer is attached it also records each interval as a span on the track
/// of the layer it covers.
class Timeline {
 public:
  explicit Timeline(obs::Tracer* tracer = nullptr) : tracer_(tracer) {}

  struct Mark {
    Clock::time_point t;
    std::int64_t trace_ns = 0;
  };
  Mark mark() const { return {Clock::now(), tracer_ ? tracer_->now_ns() : 0}; }

  /// Seconds since `m`, recorded as the span `what` on `layer`'s track.
  double since(const char* layer, const char* what, const Mark& m) {
    const double s = seconds_since(m.t);
    if (tracer_) {
      tracer_->complete_span(track(layer), what, {}, m.trace_ns,
                             tracer_->now_ns() - m.trace_ns);
    }
    return s;
  }

  template <typename Fn>
  double time(const char* layer, const char* what, Fn&& fn) {
    const Mark m = mark();
    fn();
    return since(layer, what, m);
  }

 private:
  obs::TrackId track(const char* layer);

  obs::Tracer* tracer_;
  std::vector<std::pair<std::string, obs::TrackId>> tracks_;
};

/// One complete pass of a workload: set-up, timed phase, extraction.
struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;
  double extract_s = 0.0;
  double units = 0.0;  ///< workload units completed in the timed phase

  std::uint64_t attempted = 0;  ///< operations attempted
  std::uint64_t failed = 0;     ///< operations failed (checks below)
  std::vector<std::string> failures;

  /// Simulated outputs in a fixed order: identical for one seed.
  std::vector<std::pair<std::string, std::string>> fingerprint;

  /// Per-layer metrics (traced rounds only).
  std::vector<std::pair<std::string, double>> layer;

  /// Counts `n` failed operations (none when n == 0).
  void fail_ops(std::uint64_t n, const std::string& what);
  /// Counts one failed operation unless `ok`.
  void expect(bool ok, const std::string& what) { fail_ops(ok ? 0 : 1, what); }

  void print(const std::string& name, std::uint64_t v);
  void print(const std::string& name, double v);
  void note(const std::string& name, double v) { layer.emplace_back(name, v); }
};

struct Context {
  const Sizes& sizes;
  std::uint64_t seed = 0;
  Timeline& timeline;
  /// Non-null on a traced round: the layers' attach_metrics hooks record
  /// into it, and the round fills Round::layer and runs the replays.
  obs::MetricsRegistry* metrics = nullptr;

  bool traced() const { return metrics != nullptr; }
};

using WorkloadFn = Round (*)(const Context&);

struct Workload {
  const char* name;
  WorkloadFn run;
  bool threaded = false;  ///< runs more than one thread at once
};

const std::vector<Workload>& workloads();

/// Per-layer metric catalogue, in output order.  A layer the workload does
/// not run reports 0 for its metrics.
struct LayerMetric {
  const char* name;
  const char* unit;
};
std::span<const LayerMetric> layer_metrics();

// -- replays: one lower layer alone, through its public API ----------------

struct Replay {
  double seconds = 0.0;    ///< host time of the replay
  double ns_per_op = 0.0;  ///< seconds / operations
  std::uint64_t events = 0;  ///< des events the replay executed
  double bypass_rate = 0.0;  ///< fabric replay only
};

/// des::Engine raw callbacks: `events` events with the queue held at
/// `depth` pending events.
Replay replay_des(std::uint64_t events, std::size_t depth);

/// fabric::SimNetwork::transfer_raw on `topology`: `messages` transfers of
/// `bytes` among `endpoints`, one outstanding per endpoint.
Replay replay_fabric(const fabric::Topology& topology,
                     const fabric::FabricParams& params,
                     std::span<const fabric::NodeId> endpoints,
                     std::uint64_t messages, std::uint64_t bytes);

/// msg::TagMatcher: `posts` receives, a share `unexpected_share` of whose
/// messages arrive before the receive is posted, in batches of `depth`.
Replay replay_msg(std::uint64_t posts, double unexpected_share,
                  std::size_t depth);

}  // namespace e2e
