// Measurement primitives of the cellscope benchmark: percentiles, the
// least-squares day slope, in-memory spans with self-time derivation,
// process resource readings and the metric list the benchmark prints.
//
// Everything here times calls from the outside: the benchmark wraps the
// framework's public functions in spans; nothing inside the framework is
// instrumented by it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

// ---------------------------------------------------------------- statistics

// A timing distribution reported the way the benchmark prints it: the
// median, plus the highest percentile of {99.9, 99, 95, 90, 75} that has at
// least kTailMargin samples beyond its rank (tail_pct == 0 when even p75
// does not), and the sample count.
struct Percentiles {
  static constexpr std::size_t kTailMargin = 10;

  std::size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};

// Nearest-rank percentile: the smallest sample with at least pct% of the
// samples at or below it. `sorted` must be ascending and non-empty.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted,
                                  double pct);

// Samples strictly beyond the nearest rank of pct among n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);

[[nodiscard]] Percentiles summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);

// "p50 29.8 ms, p99 36.1 ms (n=1301)"; the tail is left out when no
// percentile qualifies.
[[nodiscard]] std::string describe(const Percentiles& p,
                                   const std::string& unit);

// Ordinary least-squares slope of y against x = 0, 1, ..., n-1 (0 for
// fewer than two points).
[[nodiscard]] double least_squares_slope(const std::vector<double>& y);

// ---------------------------------------------------------------- spans

struct Span {
  const char* name = "";  // static string
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   // index into the same span list, -1 = root
  std::uint64_t request = 0;  // shared by the spans of one request
  std::uint32_t lane = 0;     // client thread
};

// Self time of every span: its duration minus the part of its interval
// covered by its children (the union of their intervals, clipped to the
// parent). Index-aligned with `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

// Records spans in memory, one lane per client thread (a lane is only
// touched by its own thread, so recording takes no lock). Disabled
// tracers record nothing and cost one branch per scope.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerLane = 1u << 20;

  Tracer(bool enabled, std::size_t lanes);

  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t lane, std::int64_t index)
        : tracer_(tracer), lane_(lane), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t lane_;
    std::int64_t index_;
  };

  // Opens a span on `lane`, nested under the lane's innermost open span.
  // `record = false` skips this one (callers sampling a hot loop).
  [[nodiscard]] Scope span(std::size_t lane, const char* name,
                           std::uint64_t request = 0, bool record = true);

  [[nodiscard]] std::uint64_t dropped() const;

  // Every lane's spans in one list (parents re-indexed into it).
  [[nodiscard]] std::vector<Span> spans() const;

  // One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<std::int64_t> open;
    std::uint64_t dropped = 0;
  };

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Lane> lanes_;

  [[nodiscard]] std::int64_t now_ns() const;
};

// Per-name rollups of a span list.
struct SpanRollup {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
[[nodiscard]] SpanRollup rollup(const std::vector<Span>& spans,
                                const std::vector<std::int64_t>& self_ns,
                                const std::string& name);

// ---------------------------------------------------------------- process

// Process CPU time (user + system), in seconds.
[[nodiscard]] double cpu_seconds();

// Resets the kernel's peak-RSS mark so the next peak_rss_mb() reading
// covers only what runs after this call. False where unsupported.
bool reset_peak_rss();
// VmHWM of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  // Replaces an existing metric of the same name.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }
  [[nodiscard]] const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

}  // namespace perfbench
