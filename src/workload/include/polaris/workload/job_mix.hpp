// Synthetic job traces for the resource manager.
//
// Feitelson-style synthetic model of a production parallel-computer
// workload (Poisson arrivals, power-of-two-biased widths, log-uniform
// runtimes, multiplicatively over-estimated wall-time requests), the
// statistical shape scheduler comparisons are conventionally run on in
// place of the production traces we do not have (see DESIGN.md).  On top
// of it come the dimensions a resource manager actually schedules on: a
// skewed population of users (a few heavy submitters, a long tail)
// grouped into accounts, per-job base priorities, and a preemptible flag.
//
// A single-user trace (users == 1) is the plain Feitelson stream: it
// draws no user and, unless p_preemptible < 1, no preemptible flag, so
// its jobs depend only on the seed and the shape fields.
#pragma once

#include <cstdint>
#include <vector>

#include "polaris/rm/types.hpp"

namespace polaris::workload {

struct MultiUserTraceConfig {
  std::size_t jobs = 10000;
  std::uint32_t users = 16;
  std::uint32_t accounts = 4;       ///< users are striped across accounts
  double user_skew = 2.0;           ///< Zipf-ish exponent; 0 = uniform
  double mean_interarrival = 60.0;  ///< seconds (Poisson arrivals)
  int min_width_exp = 0;            ///< widths 2^min .. 2^max
  int max_width_exp = 7;
  double p_power_of_two = 0.75;
  double min_runtime = 60.0;
  double max_runtime = 24.0 * 3600.0;
  double max_overestimate = 5.0;    ///< estimate = runtime * U[1, this]
  std::uint32_t priority_levels = 1;  ///< priorities drawn from [0, this)
  double p_preemptible = 1.0;
};

/// Reproducible multi-user trace; job ids are 0..jobs-1 in submit order.
std::vector<rm::JobSpec> make_multi_user_trace(
    const MultiUserTraceConfig& config, std::uint64_t seed);

/// Offered load against a cluster: sum(width * runtime) / (nodes * span of
/// submissions).
double offered_load(const std::vector<rm::JobSpec>& jobs, std::size_t nodes);

}  // namespace polaris::workload
