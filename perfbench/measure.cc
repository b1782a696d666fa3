#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace perfbench {

// ---------------------------------------------------------------- statistics

double nearest_rank(const std::vector<double>& sorted, double pct) {
  const auto rank = samples_beyond(sorted.size(), pct);
  return sorted[sorted.size() - rank - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  // The tolerance keeps decimal percentiles exact: 99.9% of 10000 is
  // rank 9990, though the double product lands a hair above it.
  const double exact = pct / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

Percentiles summarize(std::vector<double> samples) {
  Percentiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = nearest_rank(samples, 50.0);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(samples.size(), pct) >= Percentiles::kTailMargin) {
      out.tail_pct = pct;
      out.tail = nearest_rank(samples, pct);
      break;
    }
  }
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, 50.0);
}

std::string describe(const Percentiles& p, const std::string& unit) {
  std::ostringstream os;
  os.precision(4);
  os << "p50 " << p.p50 << ' ' << unit;
  if (p.tail_pct > 0.0)
    os << ", p" << p.tail_pct << ' ' << p.tail << ' ' << unit;
  os << " (n=" << p.n << ')';
  return os.str();
}

double least_squares_slope(const std::vector<double>& y) {
  const std::size_t n = y.size();
  if (n < 2) return 0.0;
  const double mean_x = static_cast<double>(n - 1) / 2.0;
  double mean_y = 0.0;
  for (const double v : y) mean_y += v;
  mean_y /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    sxy += dx * (y[i] - mean_y);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

// ---------------------------------------------------------------- spans

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size())
      children[static_cast<std::size_t>(parent)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (lo < hi) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

Tracer::Tracer(bool enabled, std::size_t lanes)
    : enabled_(enabled), epoch_(Clock::now()), lanes_(lanes) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope Tracer::span(std::size_t lane, const char* name,
                           std::uint64_t request, bool record) {
  if (!enabled_ || !record) return Scope{nullptr, 0, -1};
  Lane& l = lanes_.at(lane);
  if (l.spans.size() >= kMaxSpansPerLane) {
    ++l.dropped;
    return Scope{nullptr, 0, -1};
  }
  Span s;
  s.name = name;
  s.parent = l.open.empty() ? -1 : l.open.back();
  s.request = request;
  s.lane = static_cast<std::uint32_t>(lane);
  s.start_ns = now_ns();
  const auto index = static_cast<std::int64_t>(l.spans.size());
  l.spans.push_back(s);
  l.open.push_back(index);
  return Scope{this, lane, index};
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Lane& l = tracer_->lanes_[lane_];
  l.spans[static_cast<std::size_t>(index_)].end_ns = tracer_->now_ns();
  l.open.pop_back();
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (const auto& l : lanes_) total += l.dropped;
  return total;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  for (const auto& l : lanes_) {
    const auto offset = static_cast<std::int64_t>(out.size());
    for (Span s : l.spans) {
      if (s.parent >= 0) s.parent += offset;
      out.push_back(s);
    }
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const auto all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"lane\":" << s.lane << "}\n";
  }
}

SpanRollup rollup(const std::vector<Span>& spans,
                  const std::vector<std::int64_t>& self_ns,
                  const std::string& name) {
  SpanRollup r;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name != spans[i].name) continue;
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    ++r.count;
    r.total_ms += ms;
    r.self_ms += static_cast<double>(self_ns[i]) / 1e6;
  }
  return r;
}

// ---------------------------------------------------------------- process

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

bool reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------- metrics

void MetricList::set(const std::string& name, double value,
                     const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const Metric* MetricList::find(const std::string& name) const {
  for (const auto& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

}  // namespace perfbench
