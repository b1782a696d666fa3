// The four benchmark workloads and the helpers they share.
//
// Every workload is a closed loop over sim::default_scenario() at the
// seed given on the command line, driven from one process with at most
// four threads, through the public functions of sim, store, analysis and
// serve only. A run is: set-up, an untraced timed loop (the end-to-end
// metrics), then — with tracing on — a second, traced loop plus short
// per-layer probes (the per-layer metrics), and finally the correctness
// checks, outside every timed region.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/network_metrics.h"
#include "measure.h"
#include "sim/scenario.h"

namespace perfbench {

namespace analysis = cellscope::analysis;
namespace sim = cellscope::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space for stores and trace files
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // refused, shed after retries, or degraded
  std::vector<std::string> errors;  // correctness-check failures
  MetricList end_to_end;  // from the untraced loop
  MetricList layers;      // from the traced loop and probes

  [[nodiscard]] bool correct() const { return errors.empty(); }
  void error(const std::string& what) { errors.push_back(what); }
};

[[nodiscard]] Outcome run_simulate(const Options& opt);
[[nodiscard]] Outcome run_replay(const Options& opt);
[[nodiscard]] Outcome run_query_cold(const Options& opt);
[[nodiscard]] Outcome run_query_hot(const Options& opt);

// ------------------------------------------------------------- shared parts

// sim::default_scenario() at `seed`, simulated on four worker threads.
[[nodiscard]] sim::ScenarioConfig bench_scenario(std::uint64_t seed);

// Users x simulated days of one run of `config`.
[[nodiscard]] std::uint64_t user_days(const sim::ScenarioConfig& config);

// Creates (emptied) and returns `opt.work_dir`/<workload>/<leaf>.
[[nodiscard]] std::string fresh_dir(const Options& opt,
                                    const std::string& leaf);

// The cell groupings the read workloads query by, built from a substrate
// of the scenario; the time sim::build_substrate took lands in
// `substrate_ms`.
struct Groupings {
  analysis::CellGrouping region;
  analysis::CellGrouping cluster;
  double substrate_ms = 0.0;
};
[[nodiscard]] Groupings build_groupings(const sim::ScenarioConfig& config);

// The one KPI week the replay workload and the scan probes clip to, drawn
// from the seed: [first, last] days.
struct DayWindow {
  std::int64_t first = 0;
  std::int64_t last = 0;
};
[[nodiscard]] DayWindow seeded_week(const sim::ScenarioConfig& config);

// Read-workload set-up: simulates the scenario into a fresh store at `dir`
// through store::simulate_to_store.
void build_store(const sim::ScenarioConfig& config, const std::string& dir);

// Times store::FeedScanner directly with the projection and predicates of
// store::scan_kpi_group_series, every KPI metric over the full range and
// over `week`, `passes` times, into the store.* read-side layer metrics.
// Quarantines on the intact store are correctness errors.
void probe_scans(const std::string& dir,
                 const analysis::CellGrouping& grouping, DayWindow week,
                 int passes, Tracer& tracer, Outcome& out);

// Fills trace.overhead_pct: how much slower the traced loop ran than the
// untraced one, by the workload's ops_per_s.
void set_overhead(Outcome& out, double untraced_ops_per_s,
                  double traced_ops_per_s);

// Writes the tracer's spans to `opt.work_dir`/traces/<workload>.spans.jsonl
// and prints where.
void save_trace(const Options& opt, const Tracer& tracer);

}  // namespace perfbench
