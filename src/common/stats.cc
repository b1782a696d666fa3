#include "common/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

namespace cellscope::stats {

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  double total = 0.0;
  for (const double v : sample) total += v;
  return total / static_cast<double>(sample.size());
}

double variance(std::span<const double> sample) {
  if (sample.size() < 2) return 0.0;
  const double m = mean(sample);
  double accum = 0.0;
  for (const double v : sample) accum += (v - m) * (v - m);
  return accum / static_cast<double>(sample.size() - 1);
}

double stddev(std::span<const double> sample) {
  return std::sqrt(variance(sample));
}

namespace {

// Copies only the finite values: NaN breaks strict weak ordering, making
// nth_element/sort UB, so non-finite entries never enter a scratch buffer.
std::vector<double> finite_scratch(std::span<const double> sample) {
  std::vector<double> scratch;
  scratch.reserve(sample.size());
  for (const double v : sample)
    if (std::isfinite(v)) scratch.push_back(v);
  return scratch;
}

std::pair<double, double> select_pair(std::span<double> v, std::size_t k);

// A pivot for selecting rank k of the m values at `a`. Up to 128 values:
// the median of the first, middle and last. Beyond: a value from an evenly
// spaced sample of 32, at the sample rank three places past k's on the
// side with more values, so one partition drops most of that side and the
// next one most of the other.
double pivot(const double* a, std::size_t m, std::size_t k) {
  constexpr std::size_t kSample = 32;
  constexpr std::size_t kMargin = 3;
  if (m <= 128) {
    const double x0 = a[0];
    const double x1 = a[m / 2];
    const double x2 = a[m - 1];
    return std::max(std::min(x0, x1), std::min(std::max(x0, x1), x2));
  }
  std::array<double, kSample> sample;
  const std::size_t step = m / kSample;
  for (std::size_t j = 0; j < kSample; ++j) sample[j] = a[j * step + step / 2];
  const std::size_t rank = k * kSample / m;
  const std::size_t r = 2 * k < m ? std::min(rank + kMargin, kSample - 1)
                                  : rank - std::min(rank, kMargin);
  return select_pair(sample, r).first;
}

// The k-th and (k+1)-th smallest of finite values (the second only when
// k + 1 < v.size()), by in-place quickselect with branch-free partitions:
// per-day KPI samples are unordered, so a comparison branch mispredicts on
// about every other value. Each round moves the values < pivot() p to the
// front. When k lands at or right of p, a second pass splits off the band
// equal to p, so duplicates always make progress. Every upper side
// dropped from the range holds values >= the range, with p as its
// minimum, so `upper_min` is the (k+1)-th statistic whenever k ends the
// range. Past 2*bit_width(n) rounds, nth_element finishes the range,
// keeping crafted orders O(n log n).
std::pair<double, double> select_pair(std::span<double> v, std::size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double* const a = v.data();
  std::size_t left = 0;
  std::size_t right = v.size();
  double upper_min = kInf;
  int rounds = 2 * std::bit_width(v.size());
  while (right - left > 8) {
    if (rounds-- == 0) {
      std::nth_element(a + left, a + k, a + right);
      const double rest =
          k + 1 < right ? *std::min_element(a + k + 1, a + right) : kInf;
      return {a[k], std::min(rest, upper_min)};
    }
    const double p = pivot(a + left, right - left, k - left);
    std::size_t less_end = left;
    for (std::size_t i = left; i < right; ++i) {
      const double x = a[i];
      a[i] = a[less_end];
      a[less_end] = x;
      less_end += x < p ? 1 : 0;
    }
    if (k < less_end) {
      right = less_end;
      upper_min = p;
      continue;
    }
    std::size_t equal_end = less_end;
    double above_min = kInf;
    for (std::size_t i = less_end; i < right; ++i) {
      const double x = a[i];
      a[i] = a[equal_end];
      a[equal_end] = x;
      const bool equal = !(p < x);
      equal_end += equal ? 1 : 0;
      above_min = std::min(above_min, equal ? kInf : x);
    }
    if (k < equal_end)
      return {p, k + 1 < equal_end ? p : std::min(above_min, upper_min)};
    left = equal_end;
  }
  // At most 8 values left: insertion sort them.
  for (std::size_t i = left + 1; i < right; ++i) {
    const double x = a[i];
    std::size_t j = i;
    for (; j > left && x < a[j - 1]; --j) a[j] = a[j - 1];
    a[j] = x;
  }
  return {a[k], k + 1 < right ? a[k + 1] : upper_min};
}

// Quantile on finite scratch values we are allowed to reorder. Whenever
// n > 1 and q < 1 the result interpolates two order statistics, and
// lo + (hi - lo) * frac returns +0.0 for any +-0 tie, so the result depends
// only on the multiset of values, not on the order selection leaves.
double quantile_inplace(std::span<double> scratch, double q) {
  if (scratch.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(scratch.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto [lo_value, hi_value] = select_pair(scratch, lo);
  if (lo + 1 >= scratch.size()) return lo_value;
  const double frac = pos - static_cast<double>(lo);
  return lo_value + (hi_value - lo_value) * frac;
}
}  // namespace

double quantile(std::span<const double> sample, double q) {
  std::vector<double> scratch = finite_scratch(sample);
  return quantile_inplace(scratch, q);
}

double median(std::span<const double> sample) { return quantile(sample, 0.5); }

double median_in_place(std::span<double> values) {
  const auto finite_end = std::remove_if(
      values.begin(), values.end(), [](double v) { return !std::isfinite(v); });
  return quantile_inplace(
      values.first(static_cast<std::size_t>(finite_end - values.begin())),
      0.5);
}

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  LinearFit fit;
  if (x.size() != y.size() || x.size() < 2) return fit;
  fit.n = x.size();
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy <= 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

double delta_percent(double value, double baseline) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (value - baseline) / baseline;
}

void Running::add(double value) {
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

void Running::merge(const Running& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.count_) / static_cast<double>(total);
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

double Running::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Running::stddev() const { return std::sqrt(variance()); }

Summary summarize(std::span<const double> sample) {
  Summary s;
  s.n = sample.size();
  if (sample.empty()) return s;
  s.mean = mean(sample);
  std::vector<double> scratch = finite_scratch(sample);
  if (scratch.empty()) return s;
  std::sort(scratch.begin(), scratch.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(scratch.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, scratch.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return scratch[lo] + (scratch[hi] - scratch[lo]) * frac;
  };
  s.p10 = at(0.10);
  s.p25 = at(0.25);
  s.median = at(0.50);
  s.p75 = at(0.75);
  s.p90 = at(0.90);
  return s;
}

double SampleBuffer::median() const { return stats::median(values_); }
double SampleBuffer::take_median() {
  const double m = median_in_place(values_);
  values_.clear();
  return m;
}
double SampleBuffer::mean() const { return stats::mean(values_); }
double SampleBuffer::quantile(double q) const { return stats::quantile(values_, q); }
Summary SampleBuffer::summarize() const { return stats::summarize(values_); }

}  // namespace cellscope::stats
