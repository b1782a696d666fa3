#include "store/dataset_io.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string_view>
#include <map>
#include <memory>
#include <utility>

#include "common/atomic_file.h"
#include "obs/runtime.h"
#include "store/checkpoint.h"
#include "store/feeds.h"
#include "store/handle.h"
#include "store/scan.h"
#include "store/shard.h"

namespace cellscope::store {

namespace {

// Column order, encodings and on-disk ids (SeriesId, ScalarId, ...) live in
// store/feeds.h, shared with the vectorized scan engine (store/scan.h) —
// this file only decides how Dataset fields map onto those rows.

std::string feed_path(const std::string& dir, const std::string& feed) {
  return dir + "/" + feed_file_name(feed);
}

void write_kpi_row(FeedFileWriter& w, const telemetry::CellDayRecord& r) {
  w.i64(0, r.day);
  w.i64(1, r.cell.value());
  for (int m = 0; m < telemetry::kKpiMetricCount; ++m)
    w.f64(static_cast<std::size_t>(2 + m),
          telemetry::kpi_value(r, static_cast<telemetry::KpiMetric>(m)));
  w.end_row(r.day);
}

}  // namespace

const std::vector<std::string>& dataset_feeds() {
  static const std::vector<std::string> kFeeds = {
      "kpis",   "signaling",     "homes",  "validation", "series",
      "distributions", "matrix", "quality", "voice", "scalars"};
  return kFeeds;
}

// ----------------------------------------------------------------- writer

struct DatasetWriter::Impl {
  std::string dir;
  // Opened by the first on_kpi_day()/finish() (fresh) or resume_kpis().
  std::unique_ptr<FeedFileWriter> kpis;
  std::uint64_t streamed_rows = 0;
  bool finished = false;

  FeedFileWriter& fresh_kpis() {
    if (kpis == nullptr)
      kpis = std::make_unique<FeedFileWriter>(
          feed_path(dir, "kpis"), feed_schema("kpis").encodings());
    return *kpis;
  }
};

DatasetWriter::DatasetWriter(std::string dir) : impl_(new Impl) {
  impl_->dir = obs::ensure_obs_dir(dir);
  // A crashed writer leaves only *.tmp files behind (feed files publish
  // exclusively via close()'s rename); sweep the orphans so the run starts
  // from a clean directory. The KPI feed's pair stays until the run knows
  // whether it resumes from it.
  const std::string kpis = feed_file_name("kpis");
  remove_stale_tmp_files(impl_->dir,
                         {kpis + kTmpSuffix, kpis + kOpenRecordSuffix});
}

DatasetWriter::~DatasetWriter() = default;

void DatasetWriter::on_kpi_day(SimDay day,
                               std::span<const telemetry::CellDayRecord> rows) {
  const auto span = obs::tracer().span("store.flush", "store", day);
  const bool obs_on = obs::enabled();
  const auto flush_start = std::chrono::steady_clock::now();
  FeedFileWriter& kpis = impl_->fresh_kpis();
  for (const auto& r : rows) write_kpi_row(kpis, r);
  kpis.sync();
  impl_->streamed_rows += rows.size();
  if (obs_on) {
    const double flush_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - flush_start)
                                .count();
    obs::metrics().histogram("store.flush_ms").record(flush_ms);
    obs::timeline().record_flush_ms(flush_ms);
    obs::track_bytes(obs::Subsystem::kStore,
                     rows.size() * sizeof(telemetry::CellDayRecord));
  }
}

WriteStats DatasetWriter::finish(const sim::Dataset& ds) {
  if (impl_->finished)
    throw std::logic_error("DatasetWriter: finish() called twice");
  impl_->finished = true;

  const auto span = obs::tracer().span("store.flush", "store");
  WriteStats stats;
  const auto close_feed = [&](FeedFileWriter& w) {
    stats.rows_written += w.rows_written();
    stats.shards_written += w.shards_written();
    stats.bytes_written += w.close();
  };

  // KPI feed: already streamed day-by-day when this writer rode along as
  // the simulation's sink; written from the materialized store otherwise.
  FeedFileWriter& kpis = impl_->fresh_kpis();
  if (impl_->streamed_rows == 0) {
    for (const auto& r : ds.kpis.records()) write_kpi_row(kpis, r);
  }
  close_feed(kpis);
  impl_->kpis.reset();

  const auto open = [&](const std::string& feed) {
    return FeedFileWriter{feed_path(impl_->dir, feed),
                          feed_schema(feed).encodings()};
  };

  {
    auto w = open("signaling");
    for (const auto& d : ds.signaling.days()) {
      w.i64(0, d.day);
      for (int t = 0; t < traffic::kSignalingEventTypeCount; ++t) {
        w.u64(static_cast<std::size_t>(1 + 2 * t), d.total[t]);
        w.u64(static_cast<std::size_t>(2 + 2 * t), d.failures[t]);
      }
      w.end_row(d.day);
    }
    close_feed(w);
  }

  {
    auto w = open("homes");
    for (const auto& h : ds.homes) {
      w.i64(0, h.user.value());
      w.u64(1, h.home_site.value());
      w.u64(2, h.home_district.value());
      w.u64(3, h.home_county.value());
      w.f64(4, h.night_hours);
      w.u64(5, static_cast<std::uint64_t>(h.nights_observed));
      w.end_row(0);
    }
    close_feed(w);
  }

  {
    auto w = open("validation");
    for (const auto& p : ds.home_validation.points) {
      w.i64(0, p.lad.value());
      w.i64(1, p.census_population);
      w.i64(2, p.inferred_residents);
      w.end_row(0);
    }
    close_feed(w);
  }

  {
    auto w = open("series");
    const auto put_daily = [&](SeriesId id, std::uint64_t group,
                               const DailySeries& s) {
      if (s.empty()) return;
      for (SimDay day = s.first_day(); day <= s.last_day(); ++day) {
        const std::size_t count = s.count(day);
        if (count == 0) continue;  // untouched day: default state, not data
        w.u64(0, id);
        w.u64(1, group);
        w.i64(2, day);
        w.f64(3, s.day_sum(day));
        w.u64(4, count);
        w.end_row(day);
      }
    };
    const auto put_grouped = [&](SeriesId id,
                                 const analysis::GroupedDailySeries& g) {
      for (std::size_t group = 0; group < g.group_count(); ++group)
        put_daily(id, group, g.group(group));
    };
    put_grouped(kEntropyNational, ds.entropy_national);
    put_grouped(kGyrationNational, ds.gyration_national);
    put_grouped(kEntropyByRegion, ds.entropy_by_region);
    put_grouped(kGyrationByRegion, ds.gyration_by_region);
    put_grouped(kEntropyByCluster, ds.entropy_by_cluster);
    put_grouped(kGyrationByCluster, ds.gyration_by_cluster);
    put_grouped(kEntropyByBin, ds.entropy_by_bin);
    put_grouped(kGyrationByBin, ds.gyration_by_bin);
    put_daily(kOffnetBusyHour, 0, ds.offnet_busy_hour_minutes);
    put_daily(kInterconnectLoss, 0, ds.interconnect_busy_hour_loss_pct);
    put_daily(kRoamersActive, 0, ds.roamers_active);
    close_feed(w);
  }

  {
    auto w = open("distributions");
    const auto put = [&](DistId id, const analysis::DistributionSeries& d) {
      if (d.last_day() < d.first_day()) return;  // default-constructed
      for (SimDay day = d.first_day(); day <= d.last_day(); ++day) {
        // Sealed days are state even at n == 0 (the sealed flag itself must
        // round-trip); unsealed days are default state and are skipped.
        if (!d.sealed_day(day)) continue;
        const stats::Summary& s = d.day_summary(day);
        w.u64(0, id);
        w.i64(1, day);
        w.u64(2, s.n);
        w.f64(3, s.mean);
        w.f64(4, s.p10);
        w.f64(5, s.p25);
        w.f64(6, s.median);
        w.f64(7, s.p75);
        w.f64(8, s.p90);
        w.end_row(day);
      }
    };
    put(kGyrationDist, ds.gyration_distribution);
    put(kEntropyDist, ds.entropy_distribution);
    close_feed(w);
  }

  {
    auto w = open("matrix");
    if (ds.london_matrix != nullptr) {
      const auto& m = *ds.london_matrix;
      const auto counties = ds.geography->counties().size();
      for (std::uint32_t c = 0; c < counties; ++c) {
        for (SimDay day = m.first_day(); day <= m.last_day(); ++day) {
          const double presence = m.presence(CountyId{c}, day);
          if (presence == 0.0) continue;
          w.u64(0, kPresenceRow);
          w.u64(1, c);
          w.i64(2, day);
          w.f64(3, presence);
          w.u64(4, 0);
          w.end_row(day);
        }
      }
      for (SimDay day = m.first_day(); day <= m.last_day(); ++day) {
        const std::size_t observations = m.day_observations(day);
        if (observations == 0) continue;
        w.u64(0, kObservationsRow);
        w.u64(1, 0);
        w.i64(2, day);
        w.f64(3, 0.0);
        w.u64(4, observations);
        w.end_row(day);
      }
    }
    close_feed(w);
  }

  {
    auto w = open("quality");
    for (std::size_t i = 0; i < ds.quality.feeds().size(); ++i) {
      const telemetry::FeedQuality& f = ds.quality.feeds()[i];
      w.u64(0, kFeedTotalsRow);
      w.u64(1, f.name.size());
      w.bytes(1, f.name.data(), f.name.size());
      w.i64(2, 0);
      w.u64(3, f.expected_records);
      w.u64(4, f.observed_records);
      w.u64(5, f.quarantined_records);
      w.u64(6, f.duplicate_records);
      w.end_row(0);
      for (const auto& [day, counts] : f.days) {
        w.u64(0, kFeedDayRow);
        w.u64(1, 0);  // no name payload
        w.i64(2, day);
        w.u64(3, i);
        w.u64(4, counts.expected);
        w.u64(5, counts.observed);
        w.u64(6, 0);
        w.end_row(day);
      }
    }
    close_feed(w);
  }

  {
    auto w = open("voice");
    for (const auto& d : ds.voice_calls.days()) {
      w.i64(0, d.day);
      w.u64(1, d.attempts);
      w.u64(2, d.completed);
      w.u64(3, d.blocked);
      w.u64(4, d.dropped);
      w.end_row(d.day);
    }
    close_feed(w);
  }

  {
    auto w = open("scalars");
    const auto put = [&](ScalarId id, double fvalue, std::uint64_t uvalue) {
      w.u64(0, id);
      w.f64(1, fvalue);
      w.u64(2, uvalue);
      w.end_row(0);
    };
    put(kLteTimeShare, ds.measured_lte_time_share, 0);
    put(kEligibleUsers, 0.0, ds.eligible_users);
    put(kLondonResidents, 0.0, ds.london_residents_tracked);
    put(kLondonPresent, 0.0, ds.london_matrix != nullptr ? 1 : 0);
    if (ds.london_matrix != nullptr) {
      put(kLondonHomeCounty, 0.0, ds.london_matrix->home_county().value());
      put(kMatrixFirstDay, 0.0,
          static_cast<std::uint64_t>(ds.london_matrix->first_day()));
      put(kMatrixLastDay, 0.0,
          static_cast<std::uint64_t>(ds.london_matrix->last_day()));
    }
    put(kFitSlope, ds.home_validation.fit.slope, 0);
    put(kFitIntercept, ds.home_validation.fit.intercept, 0);
    put(kFitRSquared, ds.home_validation.fit.r_squared, 0);
    put(kFitN, 0.0, ds.home_validation.fit.n);
    put(kExpectedMarketShare, ds.home_validation.expected_market_share, 0);
    put(kKpiRowCount, 0.0, ds.kpis.records().size());
    put(kHomeRowCount, 0.0, ds.homes.size());
    put(kSignalingDayCount, 0.0, ds.signaling.days().size());
    put(kVoiceDayCount, 0.0, ds.voice_calls.days().size());
    close_feed(w);
  }

  // Manifest last, and atomically: its presence marks a completely written
  // store, so it must never be observable half-written — a crash during
  // publish leaves either no manifest (store incomplete, re-simulated) or
  // the previous complete one.
  {
    std::string manifest;
    manifest += "cellstore-v1\n";
    manifest += "digest=" + sim::config_digest(ds.config) + "\n";
    manifest += "feeds=";
    for (std::size_t i = 0; i < dataset_feeds().size(); ++i) {
      if (i) manifest += ",";
      manifest += dataset_feeds()[i];
    }
    manifest += "\n";
    // Physical accounting for the store-reconcile audit law: what was
    // written must be what reads back. Readers that predate these lines
    // skip unknown manifest rows, so the format stays backward-compatible.
    manifest += "rows=" + std::to_string(stats.rows_written) + "\n";
    manifest += "bytes=" + std::to_string(stats.bytes_written) + "\n";
    write_file_atomic(impl_->dir + "/" + kManifestFile, manifest);
  }

  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("store.bytes_written", stats.bytes_written);
    registry.add("store.rows_written", stats.rows_written);
    registry.add("store.shards_written", stats.shards_written);
    obs::track_bytes(obs::Subsystem::kStore, stats.bytes_written);
  }
  return stats;
}

WriteStats write_dataset(const sim::Dataset& ds, const std::string& dir) {
  DatasetWriter writer{dir};
  return writer.finish(ds);
}

sim::Dataset simulate_to_store(const sim::ScenarioConfig& config,
                               const std::string& dir) {
  return simulate_to_store(config, dir, StoreRunOptions{});
}

sim::Dataset simulate_to_store(const sim::ScenarioConfig& config,
                               const std::string& dir,
                               const StoreRunOptions& options) {
  // The writer first (its ctor sweeps stale *.tmp orphans), then the
  // checkpoint record, which lives in the same directory keyed by the
  // scenario digest: a record from a crashed run of the SAME scenario
  // fast-forwards the simulator; anything else starts fresh.
  DatasetWriter writer{dir};
  CheckpointManager checkpoint{obs::ensure_obs_dir(dir),
                               sim::config_digest(config)};
  checkpoint.set_kill_after_days(options.kill_after_days);
  sim::Simulator simulator{config};
  sim::Dataset ds = simulator.run(&writer, &checkpoint);
  writer.finish(ds);
  // Manifest published: the run is complete and no longer resumable state.
  checkpoint.clear();
  return ds;
}

// ----------------------------------------------------------------- reader

namespace {

// store.manifest, parsed once for every reader of it.
struct Manifest {
  std::string digest;
  std::vector<std::string> feeds;
  // The writer's physical accounting; absent in stores that predate it.
  std::optional<std::uint64_t> rows;
  std::optional<std::uint64_t> bytes;
};

// nullopt when the manifest is missing or not cellstore-v1.
std::optional<Manifest> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/" + kManifestFile, std::ios::binary);
  std::string line;
  if (!in || !std::getline(in, line) || line != "cellstore-v1")
    return std::nullopt;
  Manifest m;
  bool have_digest = false;
  while (std::getline(in, line)) {
    if (line.rfind("digest=", 0) == 0) {
      if (!have_digest) m.digest = line.substr(7);
      have_digest = true;
    } else if (line.rfind("feeds=", 0) == 0) {
      std::string_view list{line};
      list.remove_prefix(6);
      while (!list.empty()) {
        const std::size_t comma = list.find(',');
        if (comma != 0) m.feeds.emplace_back(list.substr(0, comma));
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
      }
    } else if (line.rfind("rows=", 0) == 0) {
      m.rows = std::strtoull(line.c_str() + 5, nullptr, 10);
    } else if (line.rfind("bytes=", 0) == 0) {
      m.bytes = std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return m;
}

// One batch per whole shard, so the checks below can reject a shard
// all-or-nothing.
ScanOptions whole_shards() {
  ScanOptions options;
  options.batch_rows = std::numeric_limits<std::size_t>::max();
  return options;
}

// The one KPI row decode: a whole-shard batch of every kpis column into
// `rows`. The scanner has already checked each row's day and cell against
// the kpis schema, so both narrow without loss.
void decode_kpi_rows(const ScanBatch& batch,
                     std::vector<telemetry::CellDayRecord>& rows) {
  const auto days = batch.column(0).i64;
  const auto cells = batch.column(1).i64;
  const std::size_t n = batch.rows();
  rows.resize(n);  // every field is written below
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].day = static_cast<SimDay>(days[i]);
    rows[i].cell = CellId{static_cast<std::uint32_t>(cells[i])};
  }
  for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
    const auto metric = static_cast<telemetry::KpiMetric>(m);
    const auto values = batch.column(kpi_metric_column(metric)).f64;
    for (std::size_t i = 0; i < n; ++i)
      rows[i].*telemetry::kKpiFields[m] = values[i];
  }
}

// Reads `feed` one whole shard per batch and hands each batch to `apply`,
// which returns false — leaving the dataset untouched — to reject a shard
// that fails a semantic check. Rejected shards count as quarantined next
// to the scanner's own; only applied shards count as rows read.
template <typename Apply>
void load_feed(const StoreHandle& store, std::string_view feed,
               ReadOutcome& out, Apply&& apply) {
  FeedScanner scanner =
      FeedScanner::open(store, feed_schema(feed), whole_shards());
  ScanBatch batch;
  while (scanner.next(batch)) {
    if (apply(batch)) {
      out.rows_read += batch.rows();
      continue;
    }
    ++out.shards_quarantined;
    out.quarantine_log.push_back(std::string(feed) +
                                 ": shard failed row checks");
  }
  if (scanner.ok()) out.bytes_read += scanner.totals().bytes_file;
  out.shards_quarantined += scanner.totals().shards_quarantined;
  out.quarantine_log.insert(out.quarantine_log.end(),
                            scanner.quarantine_log().begin(),
                            scanner.quarantine_log().end());
}

}  // namespace

std::string stored_digest(const std::string& dir) {
  const auto manifest = read_manifest(dir);
  return manifest ? manifest->digest : "";
}

std::optional<std::vector<telemetry::CellDayRecord>> DatasetWriter::resume_kpis(
    SimDay day, std::uint64_t rows) {
  if (impl_->kpis != nullptr)
    throw std::logic_error("DatasetWriter: resume_kpis() after the feed opened");
  // Nothing streamed yet: the first on_kpi_day() starts the feed afresh.
  if (rows == 0) return std::vector<telemetry::CellDayRecord>{};
  const std::string path = feed_path(impl_->dir, "kpis");
  std::optional<PendingFeed> pending = FeedFileWriter::recover(path, rows);
  if (!pending) return std::nullopt;

  // Decode the prefix. It must end on the checkpoint's day boundary: no
  // row after `day` inside it, none of `day` or earlier right after it.
  std::vector<telemetry::CellDayRecord> out;
  out.reserve(rows);
  std::vector<telemetry::CellDayRecord> shard_rows;
  std::size_t kept_shards = 0;  // flushed shards entirely inside the prefix
  FeedScanner scanner{std::span<const ShardView>{pending->shards},
                      feed_schema("kpis"), whole_shards()};
  ScanBatch batch;
  while (out.size() < rows && scanner.next(batch)) {
    if (scanner.totals().shards_quarantined > 0) return std::nullopt;
    decode_kpi_rows(batch, shard_rows);
    const std::size_t take = std::min<std::size_t>(shard_rows.size(),
                                                   rows - out.size());
    out.insert(out.end(), shard_rows.begin(),
               shard_rows.begin() + static_cast<std::ptrdiff_t>(take));
    if (take < shard_rows.size() && shard_rows[take].day <= day)
      return std::nullopt;
    if (take == shard_rows.size() && kept_shards < pending->index.size())
      ++kept_shards;
  }
  if (out.size() != rows || out.back().day > day) return std::nullopt;

  // Reopen after the whole shards and buffer the rest again; sync()
  // records that state, then cuts whatever followed it on disk.
  impl_->kpis = std::make_unique<FeedFileWriter>(
      path, feed_schema("kpis").encodings(),
      std::span<const ShardIndexEntry>{pending->index.data(), kept_shards});
  for (std::size_t i = static_cast<std::size_t>(impl_->kpis->rows_written());
       i < out.size(); ++i)
    write_kpi_row(*impl_->kpis, out[i]);
  impl_->kpis->sync();
  impl_->streamed_rows = rows;
  return out;
}

ScanStats scan_kpis(
    const std::string& dir,
    const std::function<void(const telemetry::CellDayRecord&)>& row) {
  // Single pass over the feed file via the scanner: each shard is decoded
  // exactly once, and a shard failing the KPI row checks is quarantined
  // whole, as read_dataset sees it.
  ScanStats stats;
  FeedScanner scanner =
      FeedScanner::open(dir, feed_schema("kpis"), whole_shards());
  ScanBatch batch;
  std::vector<telemetry::CellDayRecord> rows;
  while (scanner.next(batch)) {
    decode_kpi_rows(batch, rows);
    for (const auto& r : rows) row(r);
    stats.rows += rows.size();
  }
  stats.bytes = scanner.totals().bytes_file;
  stats.shards_quarantined += scanner.totals().shards_quarantined;
  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("store.bytes_read", stats.bytes);
    registry.add("store.rows_read", stats.rows);
  }
  return stats;
}

ReadOutcome read_dataset(const std::string& dir,
                         const sim::ScenarioConfig& config) {
  ReadOutcome out;
  const std::string digest = stored_digest(dir);
  if (digest.empty()) {
    out.status = ReadOutcome::Status::kMissing;
    out.error = "no readable manifest in " + dir;
    return out;
  }
  const std::string want = sim::config_digest(config);
  if (digest != want) {
    out.status = ReadOutcome::Status::kDigestMismatch;
    out.error = "stored digest " + digest + " != scenario digest " + want;
    return out;
  }

  const auto span = obs::tracer().span("store.load", "store");

  // The substrate derives from the config alone; only measured state is
  // read back from disk.
  sim::Dataset ds;
  ds.config = config;
  sim::build_substrate(config, ds);
  sim::init_series(config, ds);

  const StoreHandle store{dir, dataset_feeds()};

  // Scalars first: they carry the matrix shape and the expected row counts
  // that make silent truncation detectable.
  std::map<std::uint64_t, std::pair<double, std::uint64_t>> scalars;
  load_feed(store, "scalars", out, [&](const ScanBatch& b) {
    const auto ids = b.column(0).i64;
    const auto fvalues = b.column(1).f64;
    const auto uvalues = b.column(2).i64;
    for (std::size_t i = 0; i < b.rows(); ++i)
      scalars[static_cast<std::uint64_t>(ids[i])] = {
          fvalues[i], static_cast<std::uint64_t>(uvalues[i])};
    return true;
  });
  const auto scalar_f = [&](ScalarId id) {
    const auto it = scalars.find(id);
    return it == scalars.end() ? 0.0 : it->second.first;
  };
  const auto scalar_u = [&](ScalarId id) -> std::uint64_t {
    const auto it = scalars.find(id);
    return it == scalars.end() ? 0 : it->second.second;
  };

  ds.measured_lte_time_share = scalar_f(kLteTimeShare);
  ds.eligible_users = scalar_u(kEligibleUsers);
  ds.london_residents_tracked = scalar_u(kLondonResidents);
  ds.home_validation.fit.slope = scalar_f(kFitSlope);
  ds.home_validation.fit.intercept = scalar_f(kFitIntercept);
  ds.home_validation.fit.r_squared = scalar_f(kFitRSquared);
  ds.home_validation.fit.n = scalar_u(kFitN);
  ds.home_validation.expected_market_share = scalar_f(kExpectedMarketShare);
  // The matrix is sized by its stored shape, so the shape must describe
  // this run — as restore_dataset_state requires of a checkpoint.
  const std::size_t county_count = ds.geography->counties().size();
  bool matrix_ok = true;
  if (scalar_u(kLondonPresent) != 0) {
    const auto first = static_cast<std::int64_t>(scalar_u(kMatrixFirstDay));
    const auto last = static_cast<std::int64_t>(scalar_u(kMatrixLastDay));
    matrix_ok = scalar_u(kLondonHomeCounty) < county_count && first <= last &&
                first >= config.first_day() && last <= config.last_day();
    if (matrix_ok) {
      ds.london_matrix = std::make_unique<analysis::MobilityMatrix>(
          *ds.geography,
          CountyId{static_cast<std::uint32_t>(scalar_u(kLondonHomeCounty))},
          static_cast<SimDay>(first), static_cast<SimDay>(last));
    } else {
      out.quarantine_log.push_back(
          "scalars: London matrix shape outside the run");
    }
  }

  // KPI rows, re-grouped into per-day add_day() batches. A quarantined
  // shard can leave the surviving stream with out-of-order remnants of a
  // split day; those rows are dropped (and counted) instead of throwing —
  // the outcome is already degraded at that point.
  std::uint64_t kpi_rows_applied = 0;
  std::uint64_t kpi_rows_dropped = 0;
  {
    std::vector<telemetry::CellDayRecord> shard_rows;
    std::vector<telemetry::CellDayRecord> day_batch;
    SimDay last_flushed = std::numeric_limits<SimDay>::min();
    const auto flush = [&] {
      if (day_batch.empty()) return;
      last_flushed = day_batch.front().day;
      kpi_rows_applied += day_batch.size();
      ds.kpis.add_day(std::move(day_batch));
      day_batch = {};
    };
    load_feed(store, "kpis", out, [&](const ScanBatch& b) {
      decode_kpi_rows(b, shard_rows);
      for (const auto& r : shard_rows) {
        if (!day_batch.empty() && r.day != day_batch.front().day) flush();
        if (day_batch.empty() && r.day <= last_flushed) {
          ++kpi_rows_dropped;  // out-of-order remnant of a quarantined gap
          continue;
        }
        day_batch.push_back(r);
      }
      return true;
    });
    flush();
  }

  {
    // The probe's day list is chronological by construction; skip any
    // out-of-order remnant a quarantined shard left behind.
    std::optional<SimDay> last_day;
    load_feed(store, "signaling", out, [&](const ScanBatch& b) {
      for (std::size_t i = 0; i < b.rows(); ++i) {
        telemetry::DailySignalingCounts counts;
        counts.day = static_cast<SimDay>(b.column(0).i64[i]);
        for (std::size_t t = 0; t < counts.total.size(); ++t) {
          counts.total[t] =
              static_cast<std::uint64_t>(b.column(1 + 2 * t).i64[i]);
          counts.failures[t] =
              static_cast<std::uint64_t>(b.column(2 + 2 * t).i64[i]);
        }
        if (last_day && counts.day <= *last_day) continue;
        ds.signaling.restore_day(counts);
        last_day = counts.day;
      }
      return true;
    });
  }

  {
    // Ledger days are chronological by construction, as above.
    std::optional<SimDay> last_day;
    load_feed(store, "voice", out, [&](const ScanBatch& b) {
      for (std::size_t i = 0; i < b.rows(); ++i) {
        traffic::VoiceDayCalls d;
        d.day = static_cast<SimDay>(b.column(0).i64[i]);
        d.attempts = static_cast<std::uint64_t>(b.column(1).i64[i]);
        d.completed = static_cast<std::uint64_t>(b.column(2).i64[i]);
        d.blocked = static_cast<std::uint64_t>(b.column(3).i64[i]);
        d.dropped = static_cast<std::uint64_t>(b.column(4).i64[i]);
        if (last_day && d.day <= *last_day) continue;
        ds.voice_calls.record_day(d);
        last_day = d.day;
      }
      return true;
    });
  }

  load_feed(store, "homes", out, [&](const ScanBatch& b) {
    const auto users = b.column(0).i64;
    for (std::size_t i = 0; i < b.rows(); ++i) {
      analysis::HomeRecord h;
      h.user = UserId{static_cast<std::uint32_t>(users[i])};
      h.home_site = SiteId{static_cast<std::uint32_t>(b.column(1).i64[i])};
      h.home_district =
          PostcodeDistrictId{static_cast<std::uint32_t>(b.column(2).i64[i])};
      h.home_county = CountyId{static_cast<std::uint32_t>(b.column(3).i64[i])};
      h.night_hours = b.column(4).f64[i];
      h.nights_observed = static_cast<int>(b.column(5).i64[i]);
      ds.homes.push_back(h);
    }
    return true;
  });

  load_feed(store, "validation", out, [&](const ScanBatch& b) {
    const auto lads = b.column(0).i64;
    for (std::size_t i = 0; i < b.rows(); ++i) {
      analysis::LadValidationPoint p;
      p.lad = LadId{static_cast<std::uint32_t>(lads[i])};
      p.census_population = b.column(1).i64[i];
      p.inferred_residents = b.column(2).i64[i];
      ds.home_validation.points.push_back(p);
    }
    return true;
  });

  {
    const auto series_target = [&](std::uint64_t id,
                                   std::uint64_t group) -> DailySeries* {
      const auto grouped = [&](analysis::GroupedDailySeries& g) {
        return group < g.group_count() ? &g.group_mutable(group) : nullptr;
      };
      switch (id) {
        case kEntropyNational: return grouped(ds.entropy_national);
        case kGyrationNational: return grouped(ds.gyration_national);
        case kEntropyByRegion: return grouped(ds.entropy_by_region);
        case kGyrationByRegion: return grouped(ds.gyration_by_region);
        case kEntropyByCluster: return grouped(ds.entropy_by_cluster);
        case kGyrationByCluster: return grouped(ds.gyration_by_cluster);
        case kEntropyByBin: return grouped(ds.entropy_by_bin);
        case kGyrationByBin: return grouped(ds.gyration_by_bin);
        case kOffnetBusyHour: return &ds.offnet_busy_hour_minutes;
        case kInterconnectLoss: return &ds.interconnect_busy_hour_loss_pct;
        case kRoamersActive: return &ds.roamers_active;
        default: return nullptr;
      }
    };
    load_feed(store, "series", out, [&](const ScanBatch& b) {
      for (std::size_t i = 0; i < b.rows(); ++i) {
        DailySeries* target =
            series_target(static_cast<std::uint64_t>(b.column(0).i64[i]),
                          static_cast<std::uint64_t>(b.column(1).i64[i]));
        if (target == nullptr) continue;
        target->restore(static_cast<SimDay>(b.column(2).i64[i]),
                        b.column(3).f64[i],
                        static_cast<std::size_t>(b.column(4).i64[i]));
      }
      return true;
    });
  }

  load_feed(store, "distributions", out, [&](const ScanBatch& b) {
    for (std::size_t i = 0; i < b.rows(); ++i) {
      const auto id = static_cast<std::uint64_t>(b.column(0).i64[i]);
      auto* target = id == kGyrationDist  ? &ds.gyration_distribution
                     : id == kEntropyDist ? &ds.entropy_distribution
                                          : nullptr;
      if (target == nullptr) continue;
      stats::Summary summary;
      summary.n = static_cast<std::size_t>(b.column(2).i64[i]);
      summary.mean = b.column(3).f64[i];
      summary.p10 = b.column(4).f64[i];
      summary.p25 = b.column(5).f64[i];
      summary.median = b.column(6).f64[i];
      summary.p75 = b.column(7).f64[i];
      summary.p90 = b.column(8).f64[i];
      target->restore_day(static_cast<SimDay>(b.column(1).i64[i]), summary);
    }
    return true;
  });

  load_feed(store, "matrix", out, [&](const ScanBatch& b) {
    if (ds.london_matrix == nullptr) return true;
    for (std::size_t i = 0; i < b.rows(); ++i) {
      const auto kind = static_cast<std::uint64_t>(b.column(0).i64[i]);
      const auto county = static_cast<std::uint64_t>(b.column(1).i64[i]);
      const auto day = static_cast<SimDay>(b.column(2).i64[i]);
      if (kind == kPresenceRow && county < county_count) {
        ds.london_matrix->restore_presence(
            CountyId{static_cast<std::uint32_t>(county)}, day,
            b.column(3).f64[i]);
      } else if (kind == kObservationsRow) {
        ds.london_matrix->restore_observations(
            day, static_cast<std::size_t>(b.column(4).i64[i]));
      }
    }
    return true;
  });

  {
    std::vector<std::string> quality_feed_names;
    load_feed(store, "quality", out, [&](const ScanBatch& b) {
      const auto names = b.column(1).bytes;
      if (std::any_of(names.begin(), names.end(),
                      [](std::string_view name) { return name.size() > 4096; }))
        return false;
      for (std::size_t i = 0; i < b.rows(); ++i) {
        const auto kind = static_cast<std::uint64_t>(b.column(0).i64[i]);
        const auto a = static_cast<std::uint64_t>(b.column(3).i64[i]);
        const auto bv = static_cast<std::uint64_t>(b.column(4).i64[i]);
        const auto c = static_cast<std::uint64_t>(b.column(5).i64[i]);
        if (kind == kFeedTotalsRow) {
          telemetry::FeedQuality& f = ds.quality.feed(std::string(names[i]));
          f.expected_records = a;
          f.observed_records = bv;
          f.quarantined_records = c;
          f.duplicate_records = static_cast<std::uint64_t>(b.column(6).i64[i]);
          quality_feed_names.emplace_back(names[i]);
        } else if (kind == kFeedDayRow && a < quality_feed_names.size()) {
          telemetry::FeedQuality& f = ds.quality.feed(quality_feed_names[a]);
          f.days[static_cast<SimDay>(b.column(2).i64[i])] = {bv, c};
        }
      }
      return true;
    });
  }

  // Completeness cross-check: the scalar feed records how many rows each
  // variable-size feed should hold, so a quarantined shard (or a clipped
  // file) can never masquerade as a complete dataset.
  if (kpi_rows_applied + kpi_rows_dropped !=
      scalar_u(kKpiRowCount)) {
    out.quarantine_log.push_back(
        "kpis: row count mismatch (stored " +
        std::to_string(scalar_u(kKpiRowCount)) + ", decoded " +
        std::to_string(kpi_rows_applied + kpi_rows_dropped) + ")");
  }
  const bool complete =
      out.shards_quarantined == 0 && matrix_ok && kpi_rows_dropped == 0 &&
      kpi_rows_applied == scalar_u(kKpiRowCount) &&
      ds.homes.size() == scalar_u(kHomeRowCount) &&
      ds.signaling.days().size() == scalar_u(kSignalingDayCount) &&
      ds.voice_calls.days().size() == scalar_u(kVoiceDayCount);

  if (!complete) {
    // The store degraded like any other feed: account the damage in the
    // quality ledger and mark the outcome so callers re-simulate rather
    // than trust partial data.
    ds.quality.quarantine("store",
                          out.shards_quarantined > 0 ? out.shards_quarantined
                                                     : 1);
    out.status = ReadOutcome::Status::kDegraded;
    out.error = out.quarantine_log.empty()
                    ? "stored feed row counts inconsistent"
                    : out.quarantine_log.front();
  } else {
    out.status = ReadOutcome::Status::kOk;
  }

  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("store.bytes_read", out.bytes_read);
    registry.add("store.rows_read", out.rows_read);
    registry.add("store.shards_quarantined", out.shards_quarantined);
    obs::track_bytes(obs::Subsystem::kStore, out.bytes_read);
  }

  out.dataset = std::move(ds);
  return out;
}

// ------------------------------------------------------------ store audit

audit::AuditReport audit_store(const std::string& dir) {
  audit::AuditReport report;
  constexpr std::string_view kLaw = "store-reconcile";

  report.add_checks(kLaw);
  const auto manifest = read_manifest(dir);
  if (!manifest) {
    report.add_violation({std::string(kLaw), dir + "/" + kManifestFile, 0.0,
                          0.0, "manifest missing or not cellstore-v1"});
    return report;
  }
  if (manifest->feeds.empty()) {
    report.add_violation({std::string(kLaw), dir + "/" + kManifestFile, 0.0,
                          0.0, "manifest lists no feeds"});
    return report;
  }

  std::uint64_t rows_read = 0;
  std::uint64_t bytes_read = 0;
  for (const std::string& feed : manifest->feeds) {
    report.add_checks(kLaw);
    FeedFileReader reader{feed_path(dir, feed)};
    if (reader.status() != FeedFileReader::Status::kOk) {
      report.add_violation({std::string(kLaw), feed, 0.0, 0.0,
                            "feed unreadable: " + reader.error()});
      continue;
    }
    if (reader.quarantined_shards() > 0) {
      report.add_violation(
          {std::string(kLaw), feed, 0.0,
           static_cast<double>(reader.quarantined_shards()),
           "quarantined shards in stored feed"});
    }
    rows_read += reader.total_rows();
    bytes_read += reader.file_bytes();
  }

  // Writer-side vs reader-side physical totals. Stores written before the
  // accounting lines existed carry no rows=/bytes=; the reconciliation is
  // then unavailable rather than violated.
  if (manifest->rows) {
    report.add_checks(kLaw);
    if (rows_read != *manifest->rows) {
      report.add_violation({std::string(kLaw), "rows",
                            static_cast<double>(*manifest->rows),
                            static_cast<double>(rows_read),
                            "rows read back != rows the writer recorded"});
    }
  }
  if (manifest->bytes) {
    report.add_checks(kLaw);
    if (bytes_read != *manifest->bytes) {
      report.add_violation({std::string(kLaw), "bytes",
                            static_cast<double>(*manifest->bytes),
                            static_cast<double>(bytes_read),
                            "bytes read back != bytes the writer recorded"});
    }
  }
  return report;
}

}  // namespace cellscope::store
