// Statistics kernel.
//
// Everything the paper reports is a reduction over large samples: per-cell
// daily *medians* of hourly KPIs (Section 2.4), per-day *averages* of
// per-user mobility metrics (Section 2.3), percentile bands, a Pearson
// correlation (Fig 4, Section 4.4) and one least-squares fit with r-squared
// (Fig 2). This header implements exactly those reductions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cellscope::stats {

// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(std::span<const double> sample);

// Sample (Bessel-corrected, n-1 divisor) variance / standard deviation;
// 0 for fewer than 2 points — the guard and the divisor agree on sample
// semantics, since every caller works with a sample of a larger process.
[[nodiscard]] double variance(std::span<const double> sample);
[[nodiscard]] double stddev(std::span<const double> sample);

// Exact median by selection on a copy; 0 for an empty sample. Even-sized
// samples return the midpoint of the two central order statistics.
// Non-finite values (NaN/Inf) are excluded from the order statistics: NaN
// comparisons break the strict weak ordering selection relies on, so gap
// markers that leak in as NaN are treated as missing data, never as data.
[[nodiscard]] double median(std::span<const double> sample);

// median() without the copy, for hot loops that own a scratch sample: it
// reorders `values` and overwrites its non-finite entries. The result
// depends only on the multiset of finite values (a +-0 tie between the
// central order statistics always reads +0.0), so it is bit-identical to
// median() on the original values.
[[nodiscard]] double median_in_place(std::span<double> values);

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
// Non-finite values are excluded (see median()).
[[nodiscard]] double quantile(std::span<const double> sample, double q);

// Pearson product-moment correlation coefficient in [-1, 1];
// 0 when either side is (numerically) constant or sizes mismatch/empty.
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

// Ordinary least squares y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  // coefficient of determination
  std::size_t n = 0;
};
[[nodiscard]] LinearFit linear_fit(std::span<const double> x,
                                   std::span<const double> y);

// Percentage change of `value` relative to `baseline`
// ("delta variation percentage" in the paper's figure captions).
// Returns 0 when the baseline is 0.
[[nodiscard]] double delta_percent(double value, double baseline);

// Welford online accumulator: single pass mean/variance/min/max/count.
class Running {
 public:
  void add(double value);
  void merge(const Running& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Distribution snapshot used for the figures' percentile commentary
// ("all percentiles are close to the median", Section 3.2).
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p10 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
};
[[nodiscard]] Summary summarize(std::span<const double> sample);

// Accumulates raw values and produces both median and mean reductions.
// The paper reduces hourly KPIs to the *daily median per cell*; benches also
// report the mean as the documented ablation (DESIGN.md Section 5).
class SampleBuffer {
 public:
  void add(double value) { values_.push_back(value); }
  void clear() { values_.clear(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double median() const;
  // median() computed in the buffer's own storage (median_in_place); the
  // buffer is empty afterwards and keeps its capacity.
  [[nodiscard]] double take_median();
  [[nodiscard]] double mean() const;
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] Summary summarize() const;
  [[nodiscard]] std::span<const double> values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace cellscope::stats
