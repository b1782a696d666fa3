// Statistics kernel: the reductions every figure depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace cellscope::stats {
namespace {

// The reference selection: the nth_element + min_element kernel the
// quantiles ran on before the branch-free quickselect, kept verbatim as the
// oracle the production kernel must match bit for bit. Finite values only.
double quantile_oracle(std::span<double> scratch, double q) {
  if (scratch.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(scratch.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, scratch.size() - 1);
  std::nth_element(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(lo),
                   scratch.end());
  const double lo_value = scratch[lo];
  if (hi == lo) return lo_value;
  // nth_element leaves [lo+1, end) all >= lo_value; the hi-th order statistic
  // is the minimum of that suffix.
  const double hi_value =
      *std::min_element(scratch.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        scratch.end());
  const double frac = pos - static_cast<double>(lo);
  return lo_value + (hi_value - lo_value) * frac;
}

// The oracle on a copy of `sample`'s finite values, as bits.
std::uint64_t oracle_bits(const std::vector<double>& sample, double q) {
  std::vector<double> finite;
  for (const double v : sample)
    if (std::isfinite(v)) finite.push_back(v);
  return std::bit_cast<std::uint64_t>(quantile_oracle(finite, q));
}

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{5.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{-1.0, 1.0}), 0.0);
}

TEST(Variance, Basics) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
  // Sample variance of {2, 4}: mean 3, var ((1)+(1))/(2-1) = 2.
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{2.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{2.0, 4.0}), std::sqrt(2.0));
  // {1..5}: mean 3, sum of squared deviations 10, sample variance 10/4.
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}),
                   2.5);
}

TEST(Quantile, IgnoresNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaNs would poison std::nth_element's strict-weak-ordering contract;
  // the quantile is taken over the finite subset only.
  const std::vector<double> v = {nan, 10.0, nan, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(median(v), 20.0);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{nan, nan}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{nan}), 0.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Median, RobustToOutliers) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1.0, 2.0, 3.0, 1e9}), 2.5);
}

TEST(Quantile, Interpolation) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.125), 15.0);  // halfway between 10 and 20
}

TEST(Quantile, ClampsOutOfRange) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 2.0), 2.0);
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> v = {50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 40.0);
}

TEST(Pearson, PerfectCorrelations) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y_pos = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> y_neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, y_neg), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputs) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> constant = {5.0, 5.0, 5.0};
  const std::vector<double> short_x = {1.0};
  EXPECT_DOUBLE_EQ(pearson(x, constant), 0.0);
  EXPECT_DOUBLE_EQ(pearson(constant, x), 0.0);
  EXPECT_DOUBLE_EQ(pearson(short_x, short_x), 0.0);
  const std::vector<double> mismatched = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(pearson(x, mismatched), 0.0);
}

TEST(Pearson, InvariantToAffineTransform) {
  const std::vector<double> x = {1.0, 5.0, 2.0, 8.0, 3.0};
  const std::vector<double> y = {2.0, 9.0, 4.0, 20.0, 7.0};
  std::vector<double> y_scaled;
  for (const double v : y) y_scaled.push_back(3.0 * v + 10.0);
  EXPECT_NEAR(pearson(x, y), pearson(x, y_scaled), 1e-12);
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.n, 4u);
}

TEST(LinearFit, NoisyLineHasHighButImperfectR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2) ? 1.0 : -1.0));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(LinearFit, DegenerateInputs) {
  const std::vector<double> constant = {3.0, 3.0, 3.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const LinearFit fit = linear_fit(constant, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.r_squared, 0.0);
  EXPECT_EQ(linear_fit({}, {}).n, 0u);
}

TEST(DeltaPercent, Basics) {
  EXPECT_DOUBLE_EQ(delta_percent(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(delta_percent(75.0, 100.0), -25.0);
  EXPECT_DOUBLE_EQ(delta_percent(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(delta_percent(5.0, 0.0), 0.0);  // zero-baseline convention
}

TEST(Running, MatchesBatchStatistics) {
  const std::vector<double> values = {1.0, 4.0, -2.0, 8.0, 3.0, 3.0};
  Running acc;
  for (const double v : values) acc.add(v);
  EXPECT_EQ(acc.count(), values.size());
  EXPECT_NEAR(acc.mean(), mean(values), 1e-12);
  EXPECT_NEAR(acc.variance(), variance(values), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 8.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 17.0);
}

TEST(Running, EmptyIsZero) {
  Running acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Running, MergeEquivalentToSequential) {
  const std::vector<double> all = {1.0, 2.0, 5.0, -3.0, 7.0, 0.5, 2.5};
  Running left, right, whole;
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i < 3 ? left : right).add(all[i]);
    whole.add(all[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Running, MergeWithEmpty) {
  Running a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean_before = a.mean();
  a.merge(b);  // empty right side
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  b.merge(a);  // empty left side
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(Summarize, PercentileOrder) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_LE(s.p10, s.p25);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p90);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p10, 10.9, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
}

TEST(Summarize, Empty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(Summarize, PercentilesSkipNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {nan, 1.0, 2.0, 3.0, nan};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 5u);  // n counts the raw sample, percentiles only finites
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.p10, 1.2);
  EXPECT_DOUBLE_EQ(s.p90, 2.8);
}

TEST(SampleBuffer, Lifecycle) {
  SampleBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  buffer.add(3.0);
  buffer.add(1.0);
  buffer.add(2.0);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_DOUBLE_EQ(buffer.median(), 2.0);
  EXPECT_DOUBLE_EQ(buffer.mean(), 2.0);
  EXPECT_DOUBLE_EQ(buffer.quantile(1.0), 3.0);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_DOUBLE_EQ(buffer.median(), 0.0);
}

// median_in_place and SampleBuffer::take_median stand in for median()'s
// heap copy in the KPI reductions, so they must return the same bits: the
// same pick between a -0.0 and a +0.0 tie, and 0 when nothing is finite.
// Samples mix NaN, +-inf, +-0.0 and heavy duplicates, from the 24-hour
// per-cell-day size up to a large group-day.
TEST(Median, InPlaceIsBitIdenticalToTheCopyingMedian) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {nan, inf, -inf, 0.0, -0.0, 1.0, -2.5, 3.25};
  std::mt19937_64 rng{2020};
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 24; ++n) sizes.push_back(n);
  for (const std::size_t n : {100, 257, 1000, 1999, 2000}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    const int trials = n <= 24 ? 300 : 20;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<double> sample(n);
      for (auto& v : sample)
        v = rng() % 3 == 0 ? static_cast<double>(rng() % 7) - 3.0
                           : pool[rng() % std::size(pool)];
      const auto want = std::bit_cast<std::uint64_t>(median(sample));

      std::vector<double> scratch = sample;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(median_in_place(scratch)), want)
          << "n " << n << " trial " << trial;
      SampleBuffer buffer;
      for (const double v : sample) buffer.add(v);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(buffer.take_median()), want)
          << "n " << n << " trial " << trial;
      ASSERT_TRUE(buffer.empty());
    }
  }
}

// The production kernel against the oracle on the pool of
// InPlaceIsBitIdenticalToTheCopyingMedian: NaN, +-inf, +-0.0 and heavy
// duplicates, so ties, the equal band and the +-0 rule are all exercised,
// through median, median_in_place and quantile away from the median.
TEST(Median, SelectionMatchesTheNthElementOracle) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {nan, inf, -inf, 0.0, -0.0, 1.0, -2.5, 3.25};
  std::mt19937_64 rng{2020};
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 24; ++n) sizes.push_back(n);
  for (const std::size_t n : {100, 257, 1000, 1999, 2000}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    const int trials = n <= 24 ? 300 : 20;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<double> sample(n);
      for (auto& v : sample)
        v = rng() % 3 == 0 ? static_cast<double>(rng() % 7) - 3.0
                           : pool[rng() % std::size(pool)];
      const std::uint64_t want = oracle_bits(sample, 0.5);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(median(sample)), want)
          << "n " << n << " trial " << trial;
      std::vector<double> scratch = sample;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(median_in_place(scratch)), want)
          << "n " << n << " trial " << trial;
      // q = 1 with n > 1 returns the maximum uninterpolated, so its sign
      // on a +-0 tie is whatever the selection left; only its value is
      // pinned there.
      for (const double q : {0.0, 0.1, 0.25, 0.75, 0.9, 1.0}) {
        const double got = quantile(sample, q);
        const std::uint64_t expected = oracle_bits(sample, q);
        if (q == 1.0 && n > 1)
          ASSERT_EQ(got, std::bit_cast<double>(expected));
        else
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got), expected)
              << "n " << n << " q " << q << " trial " << trial;
      }
    }
  }
}

// An input that makes every median-of-3 pivot of the quickselect the
// second-smallest value of its range, so each round drops only two values
// and the round budget runs out: the nth_element fallback must finish the
// selection exactly. Built by replaying the partition on value-free
// labels, assigning the two smallest values as each round picks them.
std::vector<double> median_of_3_killer(std::size_t n) {
  std::vector<std::size_t> at(n);  // label at each position
  for (std::size_t i = 0; i < n; ++i) at[i] = i;
  std::vector<double> value(n, -1.0);
  double next_small = 0.0;
  std::size_t left = 0;
  // Stop while the quartile still lies right of the dropped values.
  while (n - left > 8 && left + 2 < (n - 1) / 4) {
    const std::size_t lo_label = at[left];
    const std::size_t pivot_label = at[left + (n - left) / 2];
    value[lo_label] = next_small++;
    value[pivot_label] = next_small++;
    std::size_t end = left;
    for (std::size_t i = left; i < n; ++i) {  // values < pivot to the front
      const std::size_t x = at[i];
      at[i] = at[end];
      at[end] = x;
      end += x == lo_label ? 1 : 0;
    }
    for (std::size_t i = end; i < n; ++i) {  // then the band equal to it
      const std::size_t x = at[i];
      at[i] = at[end];
      at[end] = x;
      end += x == pivot_label ? 1 : 0;
    }
    left = end;
  }
  for (double& v : value)
    if (v < 0.0) v = next_small++;
  return value;
}

TEST(Median, AdversarialOrdersMatchTheOracle) {
  for (const std::size_t n : {9, 10, 63, 100, 1359, 4096, 4097}) {
    std::vector<std::pair<std::string, std::vector<double>>> orders;
    std::vector<double> sorted(n);
    for (std::size_t i = 0; i < n; ++i) sorted[i] = static_cast<double>(i);
    orders.emplace_back("sorted", sorted);
    orders.emplace_back("reversed",
                        std::vector<double>(sorted.rbegin(), sorted.rend()));
    orders.emplace_back("all equal", std::vector<double>(n, 2.5));
    std::vector<double> organ(n);
    for (std::size_t i = 0; i < n; ++i)
      organ[i] = static_cast<double>(std::min(i, n - 1 - i));
    orders.emplace_back("organ pipe", organ);
    orders.emplace_back("median-of-3 killer", median_of_3_killer(n));
    for (const auto& [name, sample] : orders) {
      for (const double q : {0.0, 0.25, 0.5, 0.9}) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(quantile(sample, q)),
                  oracle_bits(sample, q))
            << name << " n " << n << " q " << q;
      }
      std::vector<double> scratch = sample;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(median_in_place(scratch)),
                oracle_bits(sample, 0.5))
          << name << " n " << n;
    }
  }
}

// Property sweep: median of any sample sits within [min, max] and the
// quantile function is monotone in q.
class QuantileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotoneTest, MonotoneAndBounded) {
  const int n = GetParam();
  std::vector<double> v;
  std::uint64_t state = 42 + n;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v.push_back(double(state >> 40));
  }
  double previous = quantile(v, 0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double value = quantile(v, q);
    EXPECT_GE(value, previous);
    previous = value;
  }
  const double med = median(v);
  EXPECT_GE(med, quantile(v, 0.0));
  EXPECT_LE(med, quantile(v, 1.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 10, 101, 1000));

}  // namespace
}  // namespace cellscope::stats
