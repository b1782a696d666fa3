// Shared parts of the benchmark workloads (see workloads.h).
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/rng.h"
#include "common/simtime.h"
#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "store/feeds.h"
#include "store/scan.h"
#include "workloads.h"

namespace perfbench {

using namespace cellscope;

sim::ScenarioConfig bench_scenario(std::uint64_t seed) {
  sim::ScenarioConfig config = sim::default_scenario();
  config.seed = seed;
  config.worker_threads = 4;
  return config;
}

std::uint64_t user_days(const sim::ScenarioConfig& config) {
  return static_cast<std::uint64_t>(config.num_users) *
         static_cast<std::uint64_t>(config.last_day() - config.first_day() + 1);
}

std::string fresh_dir(const Options& opt, const std::string& leaf) {
  const std::string dir = opt.work_dir + "/" + opt.workload + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Groupings build_groupings(const sim::ScenarioConfig& config) {
  Groupings g;
  sim::Dataset substrate;
  const auto t0 = Clock::now();
  sim::build_substrate(config, substrate);
  g.substrate_ms = ms_since(t0);
  g.region = analysis::group_by_region(*substrate.geography,
                                       *substrate.topology);
  g.cluster = analysis::group_by_cluster(*substrate.geography,
                                         *substrate.topology);
  return g;
}

DayWindow seeded_week(const sim::ScenarioConfig& config) {
  Rng rng = Rng(config.seed).fork("perfbench_week");
  const auto week = static_cast<int>(
      rng.uniform_int(config.kpi_first_week, config.last_week));
  const SimDay first = week_start_day(week);
  return {first, first + kDaysPerWeek - 1};
}

void build_store(const sim::ScenarioConfig& config, const std::string& dir) {
  const sim::Dataset ds = store::simulate_to_store(config, dir);
  if (ds.kpis.empty())
    throw std::runtime_error("store build produced no KPI rows");
}

void probe_scans(const std::string& dir,
                 const analysis::CellGrouping& grouping, DayWindow week,
                 int passes, Tracer& tracer, Outcome& out) {
  const store::FeedSchema& schema = store::feed_schema("kpis");
  // The adapter's cell mask: cells of any group (every cell when the
  // grouping has a catch-all group).
  const bool has_all =
      grouping.all_group != analysis::CellGrouping::kUngrouped;
  std::vector<std::uint8_t> mask(grouping.group_of.size(), 0);
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask[i] = (has_all ||
               grouping.group_of[i] != analysis::CellGrouping::kUngrouped)
                  ? 1
                  : 0;

  struct Shape {
    const char* label;
    const char* open_span;
    const char* decode_span;
    std::int64_t min_day;
    std::int64_t max_day;
    std::vector<double> open_ms;
    std::vector<double> decode_ms;
    std::vector<double> verify_mb_per_s;
  };
  Shape shapes[] = {
      {"full", "store.FeedScanner.open.full", "store.FeedScanner.next.full",
       std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int64_t>::max(), {}, {}, {}},
      {"week", "store.FeedScanner.open.week", "store.FeedScanner.next.week",
       week.first, week.last, {}, {}, {}},
  };

  store::ScanTotals first_pass;
  for (int pass = 0; pass < passes; ++pass) {
    for (Shape& shape : shapes) {
      for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
        const auto metric = static_cast<telemetry::KpiMetric>(m);
        store::ScanOptions options;
        options.columns = {"day", "cell",
                           schema.columns()[store::kpi_metric_column(metric)]
                               .name};
        options.predicate.min_day = shape.min_day;
        options.predicate.max_day = shape.max_day;
        options.predicate.key_column = "cell";
        options.predicate.key_mask = &mask;

        std::optional<store::FeedScanner> scanner;
        const auto t_open = Clock::now();
        {
          auto open_scope = tracer.span(0, shape.open_span);
          scanner.emplace(
              store::FeedScanner::open(dir, schema, std::move(options)));
        }
        const double open_ms = ms_since(t_open);
        if (!scanner->ok()) {
          out.error("scan probe: feed did not open: " + scanner->error());
          return;
        }

        double decode_ms = 0.0;
        std::uint64_t rows = 0;
        {
          auto decode_scope = tracer.span(0, shape.decode_span);
          store::ScanBatch batch;
          for (;;) {
            const auto t_next = Clock::now();
            const bool more = scanner->next(batch);
            decode_ms += ms_since(t_next);
            if (!more) break;
            rows += batch.rows();
          }
        }
        const store::ScanTotals& t = scanner->totals();
        if (t.shards_quarantined > 0 || rows != t.rows_emitted)
          out.error(std::string("scan probe: intact store quarantined or "
                                "lost rows (") + shape.label + ")");
        shape.open_ms.push_back(open_ms);
        shape.decode_ms.push_back(decode_ms);
        shape.verify_mb_per_s.push_back(static_cast<double>(t.bytes_file) /
                                        1e6 / (open_ms / 1e3));
        if (pass == 0) {
          first_pass.shards_pruned += t.shards_pruned;
          first_pass.shards_scanned += t.shards_scanned;
          first_pass.shards_quarantined += t.shards_quarantined;
          first_pass.rows_emitted += t.rows_emitted;
          first_pass.bytes_decoded += t.bytes_decoded;
        }
      }
    }
  }

  MetricList& l = out.layers;
  for (const Shape& shape : shapes) {
    const std::string suffix = std::string(".") + shape.label;
    l.set("store.open_ms" + suffix, median(shape.open_ms), "ms");
    l.set("store.decode_ms" + suffix, median(shape.decode_ms), "ms");
  }
  l.set("store.verify_mb_per_s", median(shapes[0].verify_mb_per_s), "MB/s");
  l.set("store.shards_pruned", static_cast<double>(first_pass.shards_pruned),
        "count");
  l.set("store.shards_scanned",
        static_cast<double>(first_pass.shards_scanned), "count");
  l.set("store.rows_emitted", static_cast<double>(first_pass.rows_emitted),
        "count");
  l.set("store.bytes_decoded", static_cast<double>(first_pass.bytes_decoded),
        "bytes");
  l.set("store.quarantined",
        static_cast<double>(first_pass.shards_quarantined), "count");
  std::cout << "  scan probe (" << passes << " passes x "
            << telemetry::kKpiMetricCount << " metrics): open full "
            << describe(summarize(shapes[0].open_ms), "ms") << "; open week "
            << describe(summarize(shapes[1].open_ms), "ms")
            << "; next() loop full "
            << describe(summarize(shapes[0].decode_ms), "ms") << "\n";
}

void set_overhead(Outcome& out, double untraced_ops_per_s,
                  double traced_ops_per_s) {
  const double pct = (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0;
  out.layers.set("trace.overhead_pct", pct, "%");
  std::cout << "  tracing overhead: " << pct
            << "% (untraced vs traced ops_per_s)\n";
}

void save_trace(const Options& opt, const Tracer& tracer) {
  const std::string dir = opt.work_dir + "/traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + opt.workload + ".spans.jsonl";
  tracer.write_jsonl(path);
  std::cout << "  spans written to " << path << " ("
            << tracer.spans().size() << " spans, " << tracer.dropped()
            << " dropped)\n";
}

}  // namespace perfbench
