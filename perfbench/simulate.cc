// Workload `simulate`: the batch producer.
//
// Each cycle does exactly what store::simulate_to_store does — a
// DatasetWriter and a CheckpointManager attached to Simulator::run, then
// DatasetWriter::finish and CheckpointManager::clear — except that the
// writer and the checkpoint manager sit behind timing decorators, so the
// time the simulator spends in its sink and checkpoint callbacks can be
// subtracted from Simulator::run.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>

#include "obs/runtime.h"
#include "sim/simulator.h"
#include "store/checkpoint.h"
#include "store/dataset_io.h"
#include "workloads.h"

namespace perfbench {

using namespace cellscope;

namespace {

class TimedSink final : public sim::DatasetSink {
 public:
  TimedSink(store::DatasetWriter& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_kpi_day(SimDay day,
                  std::span<const telemetry::CellDayRecord> rows) override {
    auto scope = tracer_.span(0, "store.DatasetWriter.on_kpi_day");
    inner_.on_kpi_day(day, rows);
  }

 private:
  store::DatasetWriter& inner_;
  Tracer& tracer_;
};

class TimedCheckpoint final : public sim::CheckpointSink {
 public:
  TimedCheckpoint(store::CheckpointManager& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::span<const std::uint8_t> resume_payload()
      const override {
    return inner_.resume_payload();
  }
  [[nodiscard]] SimDay resume_day() const override {
    return inner_.resume_day();
  }
  void on_day_complete(SimDay day,
                       const std::vector<std::uint8_t>& state) override {
    day_marks.push_back(Clock::now());
    bytes += state.size();
    last_bytes = state.size();
    auto scope = tracer_.span(0, "store.CheckpointManager.on_day_complete");
    inner_.on_day_complete(day, state);
  }

  // Entry time of every on_day_complete call: one per simulated day.
  std::vector<Clock::time_point> day_marks;
  std::uint64_t bytes = 0;
  std::uint64_t last_bytes = 0;

 private:
  store::CheckpointManager& inner_;
  Tracer& tracer_;
};

struct Cycle {
  double wall_ms = 0.0;
  double run_ms = 0.0;
  double run_cpu_s = 0.0;
  std::vector<double> day_ms;  // intervals between day completions
  store::WriteStats stats;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t ckpt_last_bytes = 0;
};

Cycle simulate_once(const sim::ScenarioConfig& config, const std::string& dir,
                    Tracer& tracer) {
  std::filesystem::remove_all(dir);
  Cycle c;
  std::optional<sim::Dataset> ds;  // destroyed after the timed region
  const auto t0 = Clock::now();
  {
    auto cycle_scope = tracer.span(0, "simulate.cycle");
    store::DatasetWriter writer{dir};
    store::CheckpointManager manager{obs::ensure_obs_dir(dir),
                                     sim::config_digest(config)};
    TimedSink sink{writer, tracer};
    TimedCheckpoint checkpoint{manager, tracer};
    sim::Simulator simulator{config};
    {
      auto scope = tracer.span(0, "sim.Simulator.run");
      const double cpu0 = cpu_seconds();
      const auto r0 = Clock::now();
      ds.emplace(simulator.run(&sink, &checkpoint));
      c.run_ms = ms_since(r0);
      c.run_cpu_s = cpu_seconds() - cpu0;
    }
    {
      auto scope = tracer.span(0, "store.DatasetWriter.finish");
      c.stats = writer.finish(*ds);
    }
    manager.clear();
    for (std::size_t i = 1; i < checkpoint.day_marks.size(); ++i)
      c.day_ms.push_back(ms_between(checkpoint.day_marks[i - 1],
                                    checkpoint.day_marks[i]));
    c.ckpt_bytes = checkpoint.bytes;
    c.ckpt_last_bytes = checkpoint.last_bytes;
  }
  c.wall_ms = ms_since(t0);
  return c;
}

std::vector<Cycle> simulate_loop(const sim::ScenarioConfig& config,
                                 const std::string& dir, int seconds,
                                 Tracer& tracer) {
  std::vector<Cycle> cycles;
  const auto start = Clock::now();
  do {
    cycles.push_back(simulate_once(config, dir, tracer));
  } while (ms_since(start) < seconds * 1e3);
  return cycles;
}

// User-days per second while days are simulated. Each cycle's day
// intervals are split into kStretches runs of consecutive days; a run's
// rate is num_users x its days / its time, and the figure is the median
// over every run of every cycle. A cycle takes longer than a run of the
// benchmark measures, so the median keeps a few noisy seconds of the
// machine from setting the figure. The intervals cover the whole cycle
// except build_substrate, the first day and finish: about 1% of it.
constexpr std::size_t kStretches = 5;

double user_days_per_s(const sim::ScenarioConfig& config,
                       const std::vector<Cycle>& cycles) {
  std::vector<double> rates;
  for (const auto& c : cycles) {
    const std::size_t n = c.day_ms.size();
    for (std::size_t s = 0; s < kStretches; ++s) {
      const std::size_t lo = n * s / kStretches;
      const std::size_t hi = n * (s + 1) / kStretches;
      double ms = 0.0;
      for (std::size_t i = lo; i < hi; ++i) ms += c.day_ms[i];
      if (hi > lo)
        rates.push_back(static_cast<double>(config.num_users) *
                        static_cast<double>(hi - lo) / (ms / 1e3));
    }
  }
  return median(rates);
}

// User-days per second over the cycles' whole wall time, for the report.
double cycle_user_days_per_s(const sim::ScenarioConfig& config,
                             const std::vector<Cycle>& cycles) {
  double wall_ms = 0.0;
  for (const auto& c : cycles) wall_ms += c.wall_ms;
  return static_cast<double>(user_days(config) * cycles.size()) /
         (wall_ms / 1e3);
}

std::vector<double> day_intervals(const std::vector<Cycle>& cycles) {
  std::vector<double> out;
  for (const auto& c : cycles)
    out.insert(out.end(), c.day_ms.begin(), c.day_ms.end());
  return out;
}

void set_layers(const sim::ScenarioConfig& config,
                const std::vector<Cycle>& cycles, const Tracer& tracer,
                Outcome& out) {
  const auto spans = tracer.spans();
  const auto self = self_times_ns(spans);
  const double n = static_cast<double>(cycles.size());
  const auto per_cycle = [&](const char* name) {
    return rollup(spans, self, name).total_ms / n;
  };
  const double run_self_ms =
      rollup(spans, self, "sim.Simulator.run").self_ms / n;
  const double kpi_day_ms = per_cycle("store.DatasetWriter.on_kpi_day");
  const double ckpt_ms = per_cycle("store.CheckpointManager.on_day_complete");
  const double finish_ms = per_cycle("store.DatasetWriter.finish");

  double wall_ms = 0.0;
  double run_ms = 0.0;
  double run_cpu_s = 0.0;
  double slope = 0.0;
  std::uint64_t ckpt_bytes = 0;
  for (const auto& c : cycles) {
    wall_ms += c.wall_ms;
    run_ms += c.run_ms;
    run_cpu_s += c.run_cpu_s;
    slope += least_squares_slope(c.day_ms) / n;
    ckpt_bytes += c.ckpt_bytes;
  }
  const auto day_ms = day_intervals(cycles);
  const auto days = summarize(day_ms);
  const Cycle& last = cycles.back();

  MetricList& l = out.layers;
  l.set("sim.run_self_ms", run_self_ms, "ms");
  l.set("sim.day_p50_ms", days.p50, "ms");
  l.set("sim.day_max_ms", *std::max_element(day_ms.begin(), day_ms.end()),
        "ms");
  l.set("sim.day_slope_ms_per_day", slope, "ms/day");
  l.set("sim.cpu_per_wall", run_cpu_s / (run_ms / 1e3), "ratio");
  l.set("sim.user_days", static_cast<double>(user_days(config)), "count");
  l.set("store.kpi_day_ms", kpi_day_ms, "ms");
  l.set("store.finish_ms", finish_ms, "ms");
  l.set("store.rows_written", static_cast<double>(last.stats.rows_written),
        "count");
  l.set("store.bytes_written", static_cast<double>(last.stats.bytes_written),
        "bytes");
  l.set("store.shards_written",
        static_cast<double>(last.stats.shards_written), "count");
  l.set("store.ckpt_ms", ckpt_ms, "ms");
  l.set("store.ckpt_bytes", static_cast<double>(ckpt_bytes) / n, "bytes");
  l.set("store.ckpt_last_bytes", static_cast<double>(last.ckpt_last_bytes),
        "bytes");
  const double accounted = run_self_ms + kpi_day_ms + ckpt_ms + finish_ms;
  l.set("trace.accounted_pct", accounted / (wall_ms / n) * 100.0, "%");

  std::cout << "  traced cycle: " << wall_ms / n << " ms = Simulator::run self "
            << run_self_ms << " + on_kpi_day " << kpi_day_ms
            << " + checkpoint " << ckpt_ms << " + finish " << finish_ms
            << " (+ " << wall_ms / n - accounted << " unaccounted)\n"
            << "  simulated day: " << describe(days, "ms") << ", slope "
            << slope << " ms/day\n";
}

// FNV-1a over the names and bytes of the store's feed files, in name order.
std::string feed_digest(const std::string& dir, std::size_t& files,
                        std::uintmax_t& bytes) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".csf")
      paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ull;
    }
  };
  files = paths.size();
  bytes = 0;
  std::vector<char> buf(1 << 16);
  for (const auto& path : paths) {
    const std::string name = path.filename().string();
    mix(name.data(), name.size() + 1);
    std::ifstream in(path, std::ios::binary);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0) {
      mix(buf.data(), static_cast<std::size_t>(in.gcount()));
      bytes += static_cast<std::uintmax_t>(in.gcount());
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void check_store(const sim::ScenarioConfig& config, const std::string& dir,
                 const std::vector<Cycle>& cycles, Outcome& out) {
  const store::WriteStats& written = cycles.back().stats;
  for (const auto& c : cycles)
    if (c.stats.rows_written != written.rows_written ||
        c.stats.bytes_written != written.bytes_written)
      out.error("two cycles of one seed wrote different stores");
  const auto replay = store::read_dataset(dir, config);
  if (replay.status != store::ReadOutcome::Status::kOk)
    out.error("written store does not read back kOk: " + replay.error);
  if (replay.rows_read != written.rows_written ||
      replay.bytes_read != written.bytes_written)
    out.error("store read back " + std::to_string(replay.rows_read) +
              " rows / " + std::to_string(replay.bytes_read) +
              " bytes, writer reported " +
              std::to_string(written.rows_written) + " / " +
              std::to_string(written.bytes_written));
  const auto audit = store::audit_store(dir);
  if (!audit.clean())
    out.error("audit_store reports " +
              std::to_string(audit.violations().size()) + " violations");
  std::size_t files = 0;
  std::uintmax_t bytes = 0;
  const std::string digest = feed_digest(dir, files, bytes);
  std::cout << "  store: " << written.rows_written << " rows, "
            << written.bytes_written << " bytes, " << written.shards_written
            << " shards; reads back kOk, audit clean: "
            << (audit.clean() ? "yes" : "no") << "\n"
            << "  feed digest " << digest << " (" << files << " feed files, "
            << bytes << " bytes)\n";
}

}  // namespace

Outcome run_simulate(const Options& opt) {
  const sim::ScenarioConfig config = bench_scenario(opt.seed);
  const std::string dir = fresh_dir(opt, "store");
  Outcome out;

  // Set-up, nine times (it takes milliseconds): a fresh store directory
  // and the substrate the run will rebuild (sim.substrate_ms).
  std::vector<double> setup_s;
  std::vector<double> substrate_ms;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    sim::Dataset substrate;
    const auto s0 = Clock::now();
    sim::build_substrate(config, substrate);
    substrate_ms.push_back(ms_since(s0));
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  Tracer untraced(false, 1);
  reset_peak_rss();
  const auto base = simulate_loop(config, dir, opt.seconds, untraced);
  const double rss_mb = peak_rss_mb();
  const double base_rate = user_days_per_s(config, base);
  const auto base_days = summarize(day_intervals(base));
  out.attempted += base.size();
  std::cout << "simulate: " << base.size() << " cycle(s) of "
            << user_days(config) << " user-days; user_days_per_s "
            << base_rate << " (median of " << kStretches
            << " stretches of days per cycle), "
            << cycle_user_days_per_s(config, base)
            << " over whole cycles; simulated day " << describe(base_days, "ms")
            << "; peak RSS " << rss_mb << " MB\n";

  out.end_to_end.set("setup_s", median(setup_s), "s");
  out.end_to_end.set("peak_rss_mb", rss_mb, "MB");
  out.end_to_end.set("ops_per_s", base_rate, "1/s");
  out.end_to_end.set("op_p50_ms", base_days.p50, "ms");
  out.layers.set("sim.substrate_ms", median(substrate_ms), "ms");

  std::vector<Cycle> all = base;
  if (opt.trace) {
    Tracer tracer(true, 1);
    const auto traced = simulate_loop(config, dir, opt.seconds, tracer);
    out.attempted += traced.size();
    set_layers(config, traced, tracer, out);
    set_overhead(out, base_rate, user_days_per_s(config, traced));
    save_trace(opt, tracer);
    all.insert(all.end(), traced.begin(), traced.end());
  }

  check_store(config, dir, all, out);
  std::filesystem::remove_all(opt.work_dir + "/" + opt.workload);
  return out;
}

}  // namespace perfbench
