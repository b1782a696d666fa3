// Tests of the benchmark's own measurement code: the percentile helper,
// the self-time subtraction and the least-squares day slope.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentiles, NearestRankPicksTheSmallestSampleCoveringPct) {
  const auto v = one_to(10);
  EXPECT_EQ(nearest_rank(v, 50.0), 5.0);
  EXPECT_EQ(nearest_rank(v, 51.0), 6.0);
  EXPECT_EQ(nearest_rank(v, 90.0), 9.0);
  EXPECT_EQ(nearest_rank(v, 100.0), 10.0);
  EXPECT_EQ(nearest_rank(v, 0.0), 1.0);
  EXPECT_EQ(samples_beyond(10, 90.0), 1u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
}

TEST(Percentiles, ReportsTheHighestPercentileWithTenSamplesBeyondIt) {
  // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
  auto p = summarize(one_to(1000));
  EXPECT_EQ(p.n, 1000u);
  EXPECT_EQ(p.p50, 500.0);
  EXPECT_EQ(p.tail_pct, 99.0);
  EXPECT_EQ(p.tail, 990.0);

  // One sample fewer and p99 has only 9 beyond it: fall back to p95.
  p = summarize(one_to(999));
  EXPECT_EQ(p.tail_pct, 95.0);
  EXPECT_EQ(p.tail, 950.0);

  p = summarize(one_to(10000));
  EXPECT_EQ(p.tail_pct, 99.9);
  EXPECT_EQ(p.tail, 9990.0);

  // Too few samples for any tail percentile.
  p = summarize(one_to(20));
  EXPECT_EQ(p.tail_pct, 0.0);
  EXPECT_EQ(p.p50, 10.0);
}

TEST(Percentiles, IgnoresInputOrderAndPrintsTheSampleCount) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  const auto p = summarize(v);
  EXPECT_EQ(p.p50, 500.0);
  EXPECT_EQ(p.tail, 990.0);
  const std::string text = describe(p, "ms");
  EXPECT_NE(text.find("p50 500 ms"), std::string::npos) << text;
  EXPECT_NE(text.find("p99 990 ms"), std::string::npos) << text;
  EXPECT_NE(text.find("(n=1000)"), std::string::npos) << text;
  EXPECT_EQ(describe(summarize(one_to(5)), "ms"), "p50 3 ms (n=5)");
  EXPECT_EQ(summarize({}).n, 0u);
  EXPECT_EQ(median({}), 0.0);
}

Span make_span(std::int64_t start, std::int64_t end, std::int64_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      make_span(0, 100, -1),  // parent
      make_span(10, 30, 0),   // children overlapping: union [10, 50)
      make_span(20, 50, 0),
      make_span(90, 120, 0),  // runs past the parent: clipped to [90, 100)
      make_span(25, 28, 1),   // grandchild: only its own parent loses it
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 3);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 3);
}

TEST(SelfTime, TracerNestsScopesPerLaneAndRollsThemUp) {
  Tracer tracer(true, 2);
  {
    auto outer = tracer.span(0, "outer", 7);
    { auto inner = tracer.span(0, "inner", 7); }
    { auto inner = tracer.span(0, "inner", 7); }
    { auto skipped = tracer.span(0, "inner", 7, /*record=*/false); }
  }
  { auto other = tracer.span(1, "other"); }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);  // lane 1 has its own root
  EXPECT_EQ(spans[3].lane, 1u);
  EXPECT_EQ(spans[1].request, 7u);

  const auto self = self_times_ns(spans);
  const auto outer = rollup(spans, self, "outer");
  const auto inner = rollup(spans, self, "inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  EXPECT_NEAR(outer.self_ms, outer.total_ms - inner.total_ms, 1e-9);

  Tracer off(false, 1);
  { auto s = off.span(0, "ignored"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(DaySlope, LeastSquaresRecoversALinearTrend) {
  std::vector<double> y;
  for (int x = 0; x < 98; ++x) y.push_back(5.0 + 0.3 * x);
  EXPECT_NEAR(least_squares_slope(y), 0.3, 1e-12);

  // Symmetric noise around a trend leaves the slope unchanged.
  std::vector<double> noisy = {1.0 + 1, 2.0 - 1, 3.0 + 1, 4.0 - 1,
                               5.0 - 1, 6.0 + 1, 7.0 - 1, 8.0 + 1};
  EXPECT_NEAR(least_squares_slope(noisy), 1.0, 1e-12);

  EXPECT_EQ(least_squares_slope({}), 0.0);
  EXPECT_EQ(least_squares_slope({4.0}), 0.0);
  EXPECT_EQ(least_squares_slope({4.0, 4.0, 4.0}), 0.0);
}

}  // namespace
}  // namespace perfbench
