#include "common/stats.h"

#include <algorithm>
#include <cmath>

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

// Quantile on finite scratch values we are allowed to reorder.
double quantile_inplace(std::span<double> scratch, double q) {
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
}  // namespace

double quantile(std::span<const double> sample, double q) {
  std::vector<double> scratch = finite_scratch(sample);
  return quantile_inplace(scratch, q);
}

double median(std::span<const double> sample) { return quantile(sample, 0.5); }

double median_in_place(std::span<double> values) {
  // remove_if keeps the finite values in their order, so nth_element sees
  // exactly the sequence finite_scratch would have copied.
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
