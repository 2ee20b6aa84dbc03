// Tests of the benchmark's own measurement helpers.

#include <cmath>
#include <set>
#include <vector>

#include <sched.h>

#include <gtest/gtest.h>

#include "bench/harness.h"

namespace perfbench {
namespace {

TEST(Percentile, ReportableOnlyWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Percentile p99 = ComputePercentile(v, 0.99);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.reportable);

  v.pop_back();  // 999 samples: only 9 lie beyond the p99 rank
  p99 = ComputePercentile(v, 0.99);
  EXPECT_EQ(p99.samples, 999u);
  EXPECT_EQ(p99.beyond, 9u);
  EXPECT_FALSE(p99.reportable);
}

TEST(Percentile, MedianNeedsTwentySamples) {
  std::vector<double> v(19, 1.0);
  EXPECT_FALSE(ComputePercentile(v, 0.5).reportable);
  v.push_back(2.0);
  v.push_back(3.0);
  const Percentile p50 = ComputePercentile(v, 0.5);
  EXPECT_TRUE(p50.reportable);
  EXPECT_EQ(p50.samples, 21u);
}

TEST(Percentile, UnsortedInputAndEmpty) {
  const Percentile p = ComputePercentile({5, 1, 4, 2, 3}, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 3.0);
  EXPECT_EQ(ComputePercentile({}, 0.5).samples, 0u);
  EXPECT_FALSE(ComputePercentile({}, 0.5).reportable);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(Percentile, BlocksAndMean) {
  std::vector<double> v;
  for (int i = 0; i < 25; ++i) v.push_back(i);
  // Blocks {0..9}, {10..19}; the partial block {20..24} is dropped.
  const std::vector<double> p50 = BlockPercentiles(v, 10, 0.5);
  ASSERT_EQ(p50.size(), 2u);
  EXPECT_DOUBLE_EQ(p50[0], 4.0);
  EXPECT_DOUBLE_EQ(p50[1], 14.0);
  EXPECT_DOUBLE_EQ(Mean(p50), 9.0);
  EXPECT_TRUE(BlockPercentiles(v, 30, 0.5).empty());
}

TEST(Arrivals, SameSeedSameStream) {
  const garcia::core::ZipfSampler zipf(1000, 1.7);
  std::vector<uint32_t> ids(1000);
  for (uint32_t i = 0; i < 1000; ++i) ids[i] = 999 - i;
  const auto a = PoissonZipfArrivals(11, 2000.0, 2.0, zipf, ids);
  const auto b = PoissonZipfArrivals(11, 2000.0, 2.0, zipf, ids);
  const auto c = PoissonZipfArrivals(12, 2000.0, 2.0, zipf, ids);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].query, b[i].query);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_s != c[i].at_s || a[i].query != c[i].query;
  }
  EXPECT_TRUE(differs);
}

TEST(Arrivals, MeanRateAndZipfHead) {
  const garcia::core::ZipfSampler zipf(20000, 1.7);
  std::vector<uint32_t> ids(20000);
  for (uint32_t i = 0; i < 20000; ++i) ids[i] = i;
  const double rate = 5000.0, seconds = 20.0;
  const auto a = PoissonZipfArrivals(3, rate, seconds, zipf, ids);
  // Poisson count: mean 1e5, sd ~316, so 1.5% is about 5 sd.
  EXPECT_NEAR(static_cast<double>(a.size()) / seconds, rate, 0.015 * rate);
  double prev = 0.0;
  size_t top = 0;
  for (const Arrival& x : a) {
    EXPECT_GT(x.at_s, prev);
    EXPECT_LT(x.at_s, seconds);
    prev = x.at_s;
    top += x.query == 0 ? 1 : 0;
  }
  // Rank 0 of Zipf(1.7) carries 1/zeta(1.7), about 49% of the mass.
  EXPECT_NEAR(static_cast<double>(top) / a.size(), zipf.Pmf(0), 0.01);
}

TEST(Bisection, FixedLengthWhateverTheOutcomes) {
  for (double threshold : {500.0, 1500.0, 7000.0, 40000.0, 1e9}) {
    int calls = 0;
    const BisectionResult r =
        LogBisection(1000.0, 64000.0, 7, [&](double rate) {
          ++calls;
          return rate <= threshold;
        });
    EXPECT_EQ(calls, 7);
    EXPECT_EQ(r.probed.size(), 7u);
    if (threshold < 1000.0) {
      EXPECT_FALSE(r.any_passed);
      EXPECT_DOUBLE_EQ(r.highest_passing, 1000.0);
    } else if (threshold < 64000.0) {
      // Within one final bracket step (64^(1/128)) below the threshold.
      EXPECT_LE(r.highest_passing, threshold);
      EXPECT_GT(r.highest_passing, threshold / std::pow(64.0, 1.0 / 128) - 1e-6);
    }
  }
}

TEST(MetricNames, CatalogFollowsTheCharset) {
  std::set<std::string> seen;
  for (const auto* catalog : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *catalog) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(ValidUnit(m.unit)) << m.name << " unit " << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  bool has_setup = false;
  for (const MetricSpec& m : EndToEndMetrics()) {
    has_setup |= m.name == "setup_s" && m.unit == "s" && !m.higher_is_better;
  }
  EXPECT_TRUE(has_setup);
}

TEST(MetricNames, RejectsBadNames) {
  EXPECT_TRUE(ValidMetricName("serving.queue_wait_us_p99"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("per second"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'm')));
}

TEST(CpuRotation, VisitsEveryAllowedCpuAndRestoresAffinity) {
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
  const int allowed = CPU_COUNT(&before);
  std::set<int> seen;
  uint64_t moves = 0;
  {
    CpuRotation rotation(std::chrono::milliseconds(2));
    const auto t0 = Clock::now();
    while (SecondsSince(t0) < 0.5 &&
           (allowed < 2 || static_cast<int>(seen.size()) < allowed)) {
      seen.insert(sched_getcpu());
    }
    moves = rotation.moves();
  }
  if (allowed >= 2) {
    EXPECT_GT(moves, 0u);
    EXPECT_EQ(static_cast<int>(seen.size()), allowed);
  } else {
    EXPECT_EQ(moves, 0u);
  }
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

}  // namespace
}  // namespace perfbench
