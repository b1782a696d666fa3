// Workload `replay`: one analyst replaying the store into figures.
//
// Each cycle is one store::read_dataset plus, for every KPI metric, one
// full-range store::scan_kpi_group_series grouped by region and the same
// call clipped to one seeded week. Every adapter answer is checked
// bit-identical (serve::encode_kpi) to analysis::KpiGroupSeries over the
// replayed Dataset.
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/query.h"
#include "store/dataset_io.h"
#include "store/scan.h"
#include "workloads.h"

namespace perfbench {

using namespace cellscope;

namespace {

// encode_kpi of KpiGroupSeries over the rows of `kpis` inside `window`.
std::string reference(const telemetry::KpiStore& kpis,
                      const analysis::CellGrouping& grouping,
                      telemetry::KpiMetric metric, const DayWindow* window) {
  if (window == nullptr)
    return serve::encode_kpi(analysis::KpiGroupSeries{kpis, grouping, metric});
  telemetry::KpiStore clipped;
  std::vector<telemetry::CellDayRecord> day_rows;
  SimDay open_day = 0;
  for (const auto& row : kpis.records()) {
    if (row.day < window->first || row.day > window->last) continue;
    if (!day_rows.empty() && row.day != open_day) {
      clipped.add_day(std::move(day_rows));
      day_rows.clear();
    }
    open_day = row.day;
    day_rows.push_back(row);
  }
  if (!day_rows.empty()) clipped.add_day(std::move(day_rows));
  return serve::encode_kpi(
      analysis::KpiGroupSeries{clipped, grouping, metric});
}

struct Samples {
  std::vector<double> cycle_ms;
  std::vector<double> read_ms;
  std::vector<double> full_ms;
  std::vector<double> week_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // degraded reads or refused scans
  std::uint64_t mismatches = 0;  // answers that differ from the reference
  double wall_ms = 0.0;

  [[nodiscard]] double cycles_per_s() const {
    return static_cast<double>(cycle_ms.size()) / (wall_ms / 1e3);
  }
};

struct Expected {
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::vector<std::string> full;  // by metric
  std::vector<std::string> week;
};

Samples replay_loop(const sim::ScenarioConfig& config, const std::string& dir,
                    const analysis::CellGrouping& grouping, DayWindow week,
                    const Expected& expected, int seconds, Tracer& tracer) {
  Samples s;
  const auto start = Clock::now();
  do {
    const auto c0 = Clock::now();
    auto cycle_scope = tracer.span(0, "replay.cycle");
    {
      const auto t0 = Clock::now();
      auto scope = tracer.span(0, "store.read_dataset");
      const auto outcome = store::read_dataset(dir, config);
      s.read_ms.push_back(ms_since(t0));
      ++s.attempted;
      if (outcome.status != store::ReadOutcome::Status::kOk)
        ++s.failed;
      else if (outcome.rows_read != expected.rows ||
               outcome.bytes_read != expected.bytes)
        ++s.mismatches;
    }
    for (const bool clipped : {false, true}) {
      for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
        const auto metric = static_cast<telemetry::KpiMetric>(m);
        const auto t0 = Clock::now();
        std::optional<analysis::KpiGroupSeries> series;
        {
          auto scope =
              tracer.span(0, clipped ? "store.scan_kpi_group_series.week"
                                     : "store.scan_kpi_group_series.full");
          series = clipped ? store::scan_kpi_group_series(
                                 dir, grouping, metric,
                                 analysis::CellReduction::kMedian, week.first,
                                 week.last)
                           : store::scan_kpi_group_series(dir, grouping,
                                                          metric);
        }
        (clipped ? s.week_ms : s.full_ms).push_back(ms_since(t0));
        ++s.attempted;
        if (!series) {
          ++s.failed;
          continue;
        }
        const auto& want = clipped ? expected.week : expected.full;
        if (serve::encode_kpi(*series) != want[static_cast<std::size_t>(m)])
          ++s.mismatches;
      }
    }
    s.cycle_ms.push_back(ms_since(c0));
  } while (ms_since(start) < seconds * 1e3);
  s.wall_ms = ms_since(start);
  return s;
}

void report(const char* label, const Samples& s) {
  std::cout << "  " << label << ": " << s.cycle_ms.size() << " cycles, "
            << s.cycles_per_s() << " cycles/s; cycle "
            << describe(summarize(s.cycle_ms), "ms") << "\n"
            << "    replay_p50_ms " << median(s.read_ms)
            << ", scan_full_p50_ms " << median(s.full_ms)
            << ", scan_window_p50_ms " << median(s.week_ms) << "\n";
}

}  // namespace

Outcome run_replay(const Options& opt) {
  const sim::ScenarioConfig config = bench_scenario(opt.seed);
  Outcome out;

  const auto setup0 = Clock::now();
  const std::string dir = fresh_dir(opt, "store");
  const Groupings groupings = build_groupings(config);
  const DayWindow week = seeded_week(config);
  build_store(config, dir);
  // References from one replay: KpiGroupSeries over the replayed Dataset.
  Expected expected;
  {
    const auto replayed = store::read_dataset(dir, config);
    if (replayed.status != store::ReadOutcome::Status::kOk)
      throw std::runtime_error("fresh store does not replay: " +
                               replayed.error);
    expected.rows = replayed.rows_read;
    expected.bytes = replayed.bytes_read;
    for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
      const auto metric = static_cast<telemetry::KpiMetric>(m);
      expected.full.push_back(reference(replayed.dataset->kpis,
                                        groupings.region, metric, nullptr));
      expected.week.push_back(reference(replayed.dataset->kpis,
                                        groupings.region, metric, &week));
    }
  }
  const double setup_s = ms_since(setup0) / 1e3;
  std::cout << "replay: store built in " << setup_s << " s; week "
            << week.first << ".." << week.last << "\n";

  Tracer untraced(false, 1);
  reset_peak_rss();
  const Samples base = replay_loop(config, dir, groupings.region, week,
                                   expected, opt.seconds, untraced);
  const double rss_mb = peak_rss_mb();
  report("untraced", base);
  out.end_to_end.set("setup_s", setup_s, "s");
  out.end_to_end.set("peak_rss_mb", rss_mb, "MB");
  out.end_to_end.set("ops_per_s", base.cycles_per_s(), "1/s");
  out.end_to_end.set("op_p50_ms", median(base.cycle_ms), "ms");
  out.layers.set("sim.substrate_ms", groupings.substrate_ms, "ms");

  std::vector<const Samples*> loops = {&base};
  Samples traced;
  if (opt.trace) {
    Tracer tracer(true, 1);
    traced = replay_loop(config, dir, groupings.region, week, expected,
                         opt.seconds, tracer);
    report("traced", traced);
    loops.push_back(&traced);
    set_overhead(out, base.cycles_per_s(), traced.cycles_per_s());

    MetricList& l = out.layers;
    l.set("store.read_dataset_p50_ms", median(traced.read_ms), "ms");
    l.set("store.scan_full_p50_ms", median(traced.full_ms), "ms");
    l.set("store.scan_week_p50_ms", median(traced.week_ms), "ms");
    probe_scans(dir, groupings.region, week, 3, tracer, out);
    std::optional<store::ReadOutcome> replayed;
    {
      auto scope = tracer.span(0, "store.read_dataset");
      replayed.emplace(store::read_dataset(dir, config));
    }
    if (!replayed->dataset)
      throw std::runtime_error("store no longer replays: " + replayed->error);
    l.set("store.replay_rows", static_cast<double>(replayed->rows_read),
          "count");
    l.set("store.replay_bytes", static_cast<double>(replayed->bytes_read),
          "bytes");
    std::vector<double> kpi_group_ms;
    for (int pass = 0; pass < 3; ++pass) {
      for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
        const auto t0 = Clock::now();
        auto scope = tracer.span(0, "analysis.KpiGroupSeries");
        const analysis::KpiGroupSeries series{
            replayed->dataset->kpis, groupings.region,
            static_cast<telemetry::KpiMetric>(m)};
        kpi_group_ms.push_back(ms_since(t0));
      }
    }
    l.set("analysis.kpi_group_ms", median(kpi_group_ms), "ms");
    save_trace(opt, tracer);
  }

  for (const Samples* s : loops) {
    out.attempted += s->attempted;
    out.failed += s->failed;
    if (s->mismatches > 0)
      out.error(std::to_string(s->mismatches) +
                " replay answers differ from KpiGroupSeries over the "
                "replayed Dataset");
  }
  std::filesystem::remove_all(opt.work_dir + "/" + opt.workload);
  return out;
}

}  // namespace perfbench
