// Core types of the polaris::rm resource manager.
//
// A JobSpec is what a user submits: width, wall-time request, identity
// (user/account) and a base priority.  The manager turns it into a live
// job with a state machine:
//
//   kPending --start--> kRunning --finish--> kCompleted
//      ^                   |  |
//      |<---- preempt -----+  +---- node crash ----> requeued (kPending,
//      |                                             requeues+1)
//      +<--------------------------------------------+
//
// Preemption and node-failure requeue are restart semantics: the job loses
// its uncommitted progress (accounted as wasted node-seconds) and runs the
// rest again on the next allocation.  Without a checkpoint interval that
// is all of it; with one, only the work since its last checkpoint
// (RmConfig::checkpoint_cost / restart_cost price the checkpoints).
#pragma once

#include <cstddef>
#include <cstdint>

namespace polaris::rm {

using JobId = std::uint64_t;
using UserId = std::uint32_t;
using AccountId = std::uint32_t;
using ReservationId = std::uint32_t;

inline constexpr std::uint32_t kNilIndex = 0xffff'ffffu;
inline constexpr ReservationId kNoReservation = 0xffff'ffffu;

enum class JobState : std::uint8_t {
  kPending,    ///< queued (includes requeued-after-failure)
  kRunning,
  kCompleted,
  kCancelled,
};

const char* to_string(JobState s);

/// A rigid parallel job as submitted.  `estimate` is the user wall-time
/// request the scheduler plans with; `runtime` is what actually happens.
struct JobSpec {
  JobId id = 0;
  UserId user = 0;
  AccountId account = 0;
  double submit = 0.0;    ///< arrival time, seconds
  double runtime = 0.0;   ///< actual execution time, seconds
  double estimate = 0.0;  ///< requested wall time, seconds (0 = runtime)
  std::uint32_t width = 1;
  std::int32_t priority = 0;  ///< base priority; higher schedules first
  bool preemptible = true;
  ReservationId reservation = kNoReservation;  ///< run inside this window
  /// Work seconds between checkpoints (tau); 0 = never checkpoints.
  double checkpoint_interval = 0.0;
};

}  // namespace polaris::rm
