#include <gtest/gtest.h>

#include <cstdint>

#include "polaris/obs/metrics.hpp"
#include "polaris/support/stats.hpp"

namespace polaris::obs {
namespace {

TEST(LogHistogram, EmptyReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < LogHistogram::kSub; ++v) h.record(v);
  EXPECT_EQ(h.count(), LogHistogram::kSub);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), LogHistogram::kSub - 1);
  EXPECT_EQ(h.sum(), (LogHistogram::kSub - 1) * LogHistogram::kSub / 2);
  // Values below kSub land in dedicated unit-width buckets.
  for (std::uint64_t v = 0; v < LogHistogram::kSub; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_floor(v), v);
    EXPECT_EQ(LogHistogram::bucket_width(v), 1u);
  }
}

TEST(LogHistogram, BucketMappingIsMonotoneAndCovering) {
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 2 + v / 3 + 1) {
    const std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_GE(i, prev) << "v=" << v;
    prev = i;
    // v lies inside its bucket's [floor, floor+width) span.
    EXPECT_LE(LogHistogram::bucket_floor(i), v) << "v=" << v;
    EXPECT_GT(LogHistogram::bucket_floor(i) + LogHistogram::bucket_width(i), v)
        << "v=" << v;
  }
}

TEST(LogHistogram, RelativeQuantizationErrorIsBounded) {
  // 32 sub-buckets per octave bound the quantization at 1/32 ~ 3.1%.
  for (std::uint64_t v = LogHistogram::kSub; v < (std::uint64_t{1} << 50);
       v = v * 5 / 3) {
    const std::size_t i = LogHistogram::bucket_index(v);
    const double width = static_cast<double>(LogHistogram::bucket_width(i));
    const double floor = static_cast<double>(LogHistogram::bucket_floor(i));
    EXPECT_LE(width / floor, 1.0 / 16.0 + 1e-12) << "v=" << v;
  }
}

TEST(LogHistogram, PercentileWalksTheDistribution) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_NEAR(h.percentile(50.0), 500.0, 500.0 / 16.0);
  EXPECT_NEAR(h.percentile(99.0), 990.0, 990.0 / 16.0);
  EXPECT_NEAR(h.percentile(100.0), 1000.0, 1000.0 / 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(LogHistogram, MergeAccumulatesAtBucketResolution) {
  LogHistogram a, b;
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v < 1100; ++v) b.record(v * 17);
  const std::uint64_t sum = a.sum() + b.sum();
  a.merge_from(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.sum(), sum);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 1099u * 17u);
  // The upper half of the merged distribution is b's.
  EXPECT_NEAR(a.percentile(75.0), 1050.0 * 17.0, 1050.0 * 17.0 / 16.0);
}

TEST(LogHistogram, StaticMergeEqualsSequentialMergeFrom) {
  LogHistogram a, b, c;
  for (std::uint64_t v = 1; v <= 500; ++v) a.record(v);
  for (std::uint64_t v = 1; v <= 300; ++v) b.record(v * 7);
  for (std::uint64_t v = 1; v <= 100; ++v) c.record(v * 1000);

  LogHistogram sequential;
  sequential.merge_from(a);
  sequential.merge_from(b);
  sequential.merge_from(c);

  const LogHistogram* parts[] = {&a, &b, &c};
  const LogHistogram merged = LogHistogram::merge(parts);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.sum(), sequential.sum());
  EXPECT_EQ(merged.min(), sequential.min());
  EXPECT_EQ(merged.max(), sequential.max());
  for (const double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(merged.percentile(p), sequential.percentile(p)) << p;
  }
}

TEST(LogHistogram, StaticMergeOfNothingIsEmpty) {
  const LogHistogram merged = LogHistogram::merge({});
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_DOUBLE_EQ(merged.percentile(99.0), 0.0);
}

TEST(LogHistogram, QuantileIsPercentileOnUnitScale) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), h.percentile(q * 100.0)) << q;
  }
}

TEST(LogHistogram, MergeFromEmptyKeepsStats) {
  LogHistogram a, empty;
  a.record(7);
  a.merge_from(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 7u);
}

TEST(LogHistogram, HandlesHugeValues) {
  LogHistogram h;
  const std::uint64_t huge = ~std::uint64_t{0};
  h.record(huge);
  h.record(1);
  EXPECT_EQ(h.max(), huge);
  EXPECT_LT(LogHistogram::bucket_index(huge), LogHistogram::kBuckets);
}

TEST(LogHistogram, ResetClearsEverythingAndIsReusable) {
  LogHistogram h;
  h.record(3);
  h.record(1'000'000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
  // A reset histogram behaves exactly like a fresh one.
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.sum(), 42u);
}

TEST(LogHistogram, PercentilesTrackSupportSummary) {
  // The same deterministic 24-bit stream (LCG) into the streaming histogram
  // and the exact-sample summary.
  LogHistogram h;
  support::Summary exact;
  std::uint64_t state = 12345;
  for (int i = 0; i < 10'000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t x = state >> 40;
    h.record(x);
    exact.add(static_cast<double>(x));
  }
  // Integers below 2^53 sum exactly in a double, so the moments agree bit
  // for bit.
  EXPECT_EQ(h.count(), exact.count());
  EXPECT_EQ(static_cast<double>(h.sum()), exact.sum());
  EXPECT_EQ(static_cast<double>(h.min()), exact.min());
  EXPECT_EQ(static_cast<double>(h.max()), exact.max());
  // Both estimates sit within one sub-bucket of the order statistic of rank
  // ceil(p * n / 100): LogHistogram interpolates inside that statistic's
  // bucket, which is at most 1/32 of its floor wide, and Summary
  // interpolates between that statistic's immediate neighbours.  10,000
  // samples over a 2^24 range lie about 1,700 apart, while every bucket
  // from p1 up (values above 2^17) is at least 4,096 wide.  So the two
  // agree within 1/32 of the exact value.
  constexpr double kRelBound = 1.0 / static_cast<double>(LogHistogram::kSub);
  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9}) {
    const double want = exact.percentile(p);
    EXPECT_NEAR(h.percentile(p), want, kRelBound * want) << "p" << p;
  }
  // The extreme buckets are wider than the values in them (min sits above
  // its bucket's floor, max below its ceiling): estimates stay inside the
  // observed range all the same.
  EXPECT_GE(h.percentile(0.0), exact.min());
  EXPECT_LE(h.percentile(100.0), exact.max());
}

TEST(MetricsRegistry, LogHistogramsAreNamedAndListed) {
  MetricsRegistry reg;
  reg.log_histogram("x.latency").record(100);
  reg.log_histogram("x.latency").record(200);
  EXPECT_EQ(reg.log_histogram("x.latency").count(), 2u);
  EXPECT_GE(reg.size(), 1u);
}

}  // namespace
}  // namespace polaris::obs
