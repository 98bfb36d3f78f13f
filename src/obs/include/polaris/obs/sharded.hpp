// Sharded metric registry: one lock-free shard per worker thread, merged
// at export.
//
// MetricsRegistry's Counter/Gauge are atomics (cross-thread but contended
// under fan-in) and its LogHistogram admits one writer only — fine at
// experiment scale, not for 10^6-rank engines with many workers.
// ShardedRegistry splits every metric into per-shard plain (non-atomic)
// slots: a worker owns exactly one Shard and updates it with ordinary
// loads/stores (an increment, a max, a LogHistogram bucket bump — no
// locks, no cache-line ping-pong), and the coordinator folds shards after
// the workers quiesce.  This replaces the hand-rolled "vector of per-shard
// LogHistogram pointers + LogHistogram::merge" pattern that pdes and serve
// each grew on their own.
//
// Lifecycle contract:
//  1. Register metrics (counter/gauge_max/log_histogram) single-threaded,
//     before any worker touches a shard.  Ids are dense indices; cache
//     them — registration is a name lookup.
//  2. Workers record into their own shard only.  No synchronization: the
//     shard is single-owner by construction.
//  3. After a barrier/join, read merged values (counter_value, merged,
//     export_into) or reset() for the next run.  Reading while workers
//     are still recording is a data race by contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "polaris/obs/metrics.hpp"

namespace polaris::obs {

class ShardedRegistry {
 public:
  struct CounterId {
    std::uint32_t v = 0;
  };
  struct GaugeId {
    std::uint32_t v = 0;
  };
  struct HistId {
    std::uint32_t v = 0;
  };

  explicit ShardedRegistry(std::size_t shards);

  /// Registration (phase 1): returns a dense id; the same name yields the
  /// same id.  Grows every shard's slot array — single-threaded only.
  CounterId counter(std::string_view name);
  GaugeId gauge_max(std::string_view name);
  HistId log_histogram(std::string_view name);

  /// One worker's private slice of every registered metric.
  class alignas(64) Shard {
   public:
    void add(CounterId id, std::uint64_t n = 1) { counters_[id.v] += n; }
    void observe_max(GaugeId id, double v) {
      if (v > gauges_[id.v]) gauges_[id.v] = v;
    }
    void record(HistId id, std::uint64_t v) { hists_[id.v].record(v); }
    /// Direct handle for call sites that keep a LogHistogram* hot pointer.
    LogHistogram& hist(HistId id) { return hists_[id.v]; }

   private:
    friend class ShardedRegistry;
    std::vector<std::uint64_t> counters_;
    std::vector<double> gauges_;
    std::vector<LogHistogram> hists_;
  };

  Shard& shard(std::size_t i) { return shards_[i]; }
  std::size_t shard_count() const { return shards_.size(); }

  // Export (phase 3) — workers must have quiesced.

  /// Sum of a counter over all shards.
  std::uint64_t counter_value(CounterId id) const;
  /// Max of a gauge over all shards (0.0 if never observed).
  double gauge_max_value(GaugeId id) const;
  /// Bucket-add merge of one histogram over all shards
  /// (LogHistogram::merge under the hood).
  LogHistogram merged(HistId id) const;

  /// Folds everything into a MetricsRegistry under the registered names
  /// (counters add, gauges observe_max, histograms merge_from).  Call once
  /// per run — repeating without reset() double-counts.
  void export_into(MetricsRegistry& reg) const;

  /// Zeroes every shard for reuse; registrations (and ids) survive.
  void reset();

 private:
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::vector<Shard> shards_;
};

}  // namespace polaris::obs
