#include "polaris/workload/job_mix.hpp"

#include <gtest/gtest.h>

namespace polaris::workload {
namespace {

MultiUserTraceConfig single_user(std::size_t jobs) {
  MultiUserTraceConfig cfg;
  cfg.jobs = jobs;
  cfg.users = 1;
  cfg.accounts = 1;
  return cfg;
}

TEST(TraceGenerator, DeterministicForSeed) {
  const auto a = make_multi_user_trace(single_user(100), 42);
  const auto b = make_multi_user_trace(single_user(100), 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit, b[i].submit);
    EXPECT_EQ(a[i].width, b[i].width);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
  }
}

TEST(TraceGenerator, ArrivalsAreMonotone) {
  const auto jobs = make_multi_user_trace(single_user(10000), 1);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].submit, jobs[i - 1].submit);
  }
}

TEST(TraceGenerator, FieldsWithinConfiguredRanges) {
  MultiUserTraceConfig cfg = single_user(5000);
  cfg.min_width_exp = 1;
  cfg.max_width_exp = 5;
  cfg.min_runtime = 10.0;
  cfg.max_runtime = 1000.0;
  cfg.max_overestimate = 3.0;
  for (const rm::JobSpec& j : make_multi_user_trace(cfg, 7)) {
    EXPECT_GE(j.width, 1u);
    EXPECT_LE(j.width, 32u);
    EXPECT_GE(j.runtime, 10.0 - 1e-9);
    EXPECT_LE(j.runtime, 1000.0 + 1e-6);
    EXPECT_GE(j.estimate, j.runtime - 1e-9);
    EXPECT_LE(j.estimate, 3.0 * j.runtime + 1e-6);
  }
}

TEST(TraceGenerator, MeanInterarrivalRoughlyMatches) {
  MultiUserTraceConfig cfg = single_user(20000);
  cfg.mean_interarrival = 30.0;
  const auto jobs = make_multi_user_trace(cfg, 3);
  const double span = jobs.back().submit - jobs.front().submit;
  EXPECT_NEAR(span / static_cast<double>(cfg.jobs - 1), 30.0, 1.5);
}

TEST(TraceGenerator, PowerOfTwoBias) {
  MultiUserTraceConfig cfg = single_user(10000);
  cfg.p_power_of_two = 1.0;
  for (const rm::JobSpec& j : make_multi_user_trace(cfg, 9)) {
    EXPECT_EQ(j.width & (j.width - 1), 0u) << j.width;
  }
}

TEST(OfferedLoad, ScalesInverselyWithNodes) {
  const auto jobs = make_multi_user_trace(single_user(10000), 5);
  EXPECT_NEAR(offered_load(jobs, 128) / offered_load(jobs, 256), 2.0, 1e-9);
}

}  // namespace
}  // namespace polaris::workload
