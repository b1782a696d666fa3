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
#include "geo/admin.h"
#include "geo/oac.h"
#include "obs/runtime.h"
#include "store/checkpoint.h"
#include "store/feeds.h"
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

std::string stored_digest(const std::string& dir) {
  std::ifstream manifest(dir + "/" + kManifestFile, std::ios::binary);
  if (!manifest) return "";
  std::string line;
  if (!std::getline(manifest, line) || line != "cellstore-v1") return "";
  while (std::getline(manifest, line)) {
    if (line.rfind("digest=", 0) == 0) return line.substr(7);
  }
  return "";
}

namespace {

// Cursors over one shard, one per column.
struct ShardCursors {
  explicit ShardCursors(const ShardView& shard) {
    cursors.reserve(shard.columns.size());
    for (const auto& column : shard.columns) cursors.emplace_back(column);
  }
  std::vector<ColumnCursor> cursors;
  ColumnCursor& operator[](std::size_t i) { return cursors[i]; }
};

// Per-feed load driver: opens the feed, accounts bytes/quarantines into the
// outcome, and hands each valid shard to `decode`, which must return false
// (without side effects on the dataset) when a row fails to decode — the
// shard is then quarantined rather than half-applied.
class FeedLoader {
 public:
  FeedLoader(const std::string& dir, ReadOutcome& out) : dir_(dir), out_(out) {}

  template <typename DecodeShard>
  void load(const std::string& feed, std::size_t expected_columns,
            DecodeShard&& decode) {
    FeedFileReader reader{feed_path(dir_, feed)};
    for (const auto& entry : reader.quarantine_log())
      out_.quarantine_log.push_back(entry);
    if (reader.status() != FeedFileReader::Status::kOk) {
      // The whole feed is unreadable: one quarantine unit, zero rows.
      ++out_.shards_quarantined;
      out_.quarantine_log.push_back(feed + ": " + reader.error());
      return;
    }
    out_.bytes_read += reader.file_bytes();
    out_.shards_quarantined += reader.quarantined_shards();
    for (const auto& shard : reader.shards()) {
      if (shard.columns.size() != expected_columns || !decode(shard)) {
        ++out_.shards_quarantined;
        out_.quarantine_log.push_back(feed + ": shard failed row decode");
        continue;
      }
      out_.rows_read += shard.rows;
    }
  }

 private:
  const std::string& dir_;
  ReadOutcome& out_;
};

// Decodes one KPI shard into `rows` (cleared first). Returns false — with
// no partial output consumed — on any row that fails to decode, so callers
// quarantine the shard instead of applying half of it.
bool decode_kpi_shard(const ShardView& shard,
                      std::vector<telemetry::CellDayRecord>& rows) {
  ShardCursors c{shard};
  rows.clear();
  rows.reserve(shard.rows);
  for (std::uint64_t i = 0; i < shard.rows; ++i) {
    std::int64_t day = 0, cell = 0;
    if (!c[0].next_i64(day) || !c[1].next_i64(cell)) return false;
    if (cell < 0 || day < std::numeric_limits<SimDay>::min() ||
        day > std::numeric_limits<SimDay>::max())
      return false;
    telemetry::CellDayRecord r;
    r.day = static_cast<SimDay>(day);
    r.cell = CellId{static_cast<std::uint32_t>(cell)};
    std::array<double, telemetry::kKpiMetricCount> values{};
    for (int m = 0; m < telemetry::kKpiMetricCount; ++m)
      if (!c[static_cast<std::size_t>(2 + m)].next_f64(
              values[static_cast<std::size_t>(m)]))
        return false;
    r.dl_volume_mb = values[0];
    r.ul_volume_mb = values[1];
    r.active_dl_users = values[2];
    r.tti_utilization = values[3];
    r.user_dl_throughput_mbps = values[4];
    r.active_data_seconds = values[5];
    r.connected_users = values[6];
    r.voice_volume_mb = values[7];
    r.simultaneous_voice_users = values[8];
    r.voice_dl_loss_pct = values[9];
    r.voice_ul_loss_pct = values[10];
    rows.push_back(r);
  }
  return true;
}

}  // namespace

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
  std::size_t whole_shards = 0;  // flushed shards entirely inside the prefix
  for (const ShardView& shard : pending->shards) {
    if (out.size() == rows) break;
    if (shard.columns.size() != feed_schema("kpis").size() ||
        !decode_kpi_shard(shard, shard_rows))
      return std::nullopt;
    const std::size_t take = std::min<std::size_t>(shard_rows.size(),
                                                   rows - out.size());
    out.insert(out.end(), shard_rows.begin(),
               shard_rows.begin() + static_cast<std::ptrdiff_t>(take));
    if (take < shard_rows.size() && shard_rows[take].day <= day)
      return std::nullopt;
    if (take == shard_rows.size() && whole_shards < pending->index.size())
      ++whole_shards;
  }
  if (out.size() != rows || (!out.empty() && out.back().day > day))
    return std::nullopt;

  // Reopen after the whole shards and buffer the rest again; sync()
  // records that state, then cuts whatever followed it on disk.
  impl_->kpis = std::make_unique<FeedFileWriter>(
      path, feed_schema("kpis").encodings(),
      std::span<const ShardIndexEntry>{pending->index.data(), whole_shards});
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
  // Single pass over the feed file via the vectorized scanner: each shard
  // is decoded exactly once into reusable batches (the scanner also keeps
  // the health timeline alive at its shard safe points).
  ScanStats stats;
  ScanOptions options;
  options.batch_rows = FeedFileWriter::kDefaultRowsPerShard;
  FeedScanner scanner =
      FeedScanner::open(dir, feed_schema("kpis"), std::move(options));
  ScanBatch batch;
  bool semantic_damage = false;
  while (scanner.next(batch)) {
    const auto days = batch.column(0).i64;
    const auto cells = batch.column(1).i64;
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      if (cells[i] < 0 || days[i] < std::numeric_limits<SimDay>::min() ||
          days[i] > std::numeric_limits<SimDay>::max()) {
        semantic_damage = true;
        continue;
      }
      telemetry::CellDayRecord r;
      r.day = static_cast<SimDay>(days[i]);
      r.cell = CellId{static_cast<std::uint32_t>(cells[i])};
      r.dl_volume_mb = batch.column(2).f64[i];
      r.ul_volume_mb = batch.column(3).f64[i];
      r.active_dl_users = batch.column(4).f64[i];
      r.tti_utilization = batch.column(5).f64[i];
      r.user_dl_throughput_mbps = batch.column(6).f64[i];
      r.active_data_seconds = batch.column(7).f64[i];
      r.connected_users = batch.column(8).f64[i];
      r.voice_volume_mb = batch.column(9).f64[i];
      r.simultaneous_voice_users = batch.column(10).f64[i];
      r.voice_dl_loss_pct = batch.column(11).f64[i];
      r.voice_ul_loss_pct = batch.column(12).f64[i];
      row(r);
      ++stats.rows;
    }
  }
  stats.bytes = scanner.totals().bytes_file;
  stats.shards_quarantined =
      scanner.totals().shards_quarantined + (semantic_damage ? 1 : 0);
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

  const SimDay first_day = config.first_day();
  const SimDay last_day = config.last_day();
  ds.entropy_national = analysis::GroupedDailySeries{1, first_day, last_day};
  ds.gyration_national = analysis::GroupedDailySeries{1, first_day, last_day};
  ds.entropy_by_region = analysis::GroupedDailySeries{
      static_cast<std::size_t>(geo::kRegionCount), first_day, last_day};
  ds.gyration_by_region = analysis::GroupedDailySeries{
      static_cast<std::size_t>(geo::kRegionCount), first_day, last_day};
  ds.entropy_by_cluster = analysis::GroupedDailySeries{
      static_cast<std::size_t>(geo::kOacClusterCount), first_day, last_day};
  ds.gyration_by_cluster = analysis::GroupedDailySeries{
      static_cast<std::size_t>(geo::kOacClusterCount), first_day, last_day};
  if (config.collect_binned_mobility) {
    ds.entropy_by_bin = analysis::GroupedDailySeries{
        static_cast<std::size_t>(kFourHourBinsPerDay), first_day, last_day};
    ds.gyration_by_bin = analysis::GroupedDailySeries{
        static_cast<std::size_t>(kFourHourBinsPerDay), first_day, last_day};
  }
  ds.offnet_busy_hour_minutes = DailySeries{first_day, last_day};
  ds.interconnect_busy_hour_loss_pct = DailySeries{first_day, last_day};
  ds.roamers_active = DailySeries{first_day, last_day};
  ds.gyration_distribution =
      analysis::DistributionSeries{first_day, last_day};
  ds.entropy_distribution = analysis::DistributionSeries{first_day, last_day};

  FeedLoader loader{dir, out};

  // Scalars first: they carry the matrix shape and the expected row counts
  // that make silent truncation detectable.
  std::map<std::uint64_t, std::pair<double, std::uint64_t>> scalars;
  loader.load("scalars", feed_schema("scalars").size(), [&](const ShardView& shard) {
    ShardCursors c{shard};
    std::map<std::uint64_t, std::pair<double, std::uint64_t>> rows;
    for (std::uint64_t i = 0; i < shard.rows; ++i) {
      std::uint64_t id = 0, uvalue = 0;
      double fvalue = 0.0;
      if (!c[0].next_u64(id) || !c[1].next_f64(fvalue) ||
          !c[2].next_u64(uvalue))
        return false;
      rows[id] = {fvalue, uvalue};
    }
    for (const auto& [id, value] : rows) scalars[id] = value;
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
  const std::size_t county_count = ds.geography->counties().size();
  if (scalar_u(kLondonPresent) != 0 &&
      scalar_u(kLondonHomeCounty) < county_count) {
    ds.london_matrix = std::make_unique<analysis::MobilityMatrix>(
        *ds.geography,
        CountyId{static_cast<std::uint32_t>(scalar_u(kLondonHomeCounty))},
        static_cast<SimDay>(scalar_u(kMatrixFirstDay)),
        static_cast<SimDay>(scalar_u(kMatrixLastDay)));
  }

  // KPI rows, re-grouped into per-day add_day() batches. A quarantined
  // shard can leave the surviving stream with out-of-order remnants of a
  // split day; those rows are dropped (and counted) instead of throwing —
  // the outcome is already degraded at that point.
  std::uint64_t kpi_rows_applied = 0;
  std::uint64_t kpi_rows_dropped = 0;
  {
    std::vector<telemetry::CellDayRecord> day_batch;
    SimDay last_flushed = std::numeric_limits<SimDay>::min();
    const auto flush = [&] {
      if (day_batch.empty()) return;
      last_flushed = day_batch.front().day;
      kpi_rows_applied += day_batch.size();
      ds.kpis.add_day(std::move(day_batch));
      day_batch = {};
    };
    loader.load("kpis", feed_schema("kpis").size(), [&](const ShardView& shard) {
      std::vector<telemetry::CellDayRecord> rows;
      if (!decode_kpi_shard(shard, rows)) return false;
      for (const auto& r : rows) {
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
    SimDay last_signaling_day = std::numeric_limits<SimDay>::min();
    bool any_signaling = false;
    loader.load("signaling", feed_schema("signaling").size(),
                [&](const ShardView& shard) {
      ShardCursors c{shard};
      std::vector<telemetry::DailySignalingCounts> rows;
      rows.reserve(shard.rows);
      for (std::uint64_t i = 0; i < shard.rows; ++i) {
        std::int64_t day = 0;
        if (!c[0].next_i64(day)) return false;
        telemetry::DailySignalingCounts counts;
        counts.day = static_cast<SimDay>(day);
        for (int t = 0; t < traffic::kSignalingEventTypeCount; ++t) {
          if (!c[static_cast<std::size_t>(1 + 2 * t)].next_u64(
                  counts.total[t]) ||
              !c[static_cast<std::size_t>(2 + 2 * t)].next_u64(
                  counts.failures[t]))
            return false;
        }
        rows.push_back(counts);
      }
      for (const auto& counts : rows) {
        // The probe's day list is chronological by construction; skip any
        // out-of-order remnant a quarantined shard left behind.
        if (any_signaling && counts.day <= last_signaling_day) continue;
        ds.signaling.restore_day(counts);
        last_signaling_day = counts.day;
        any_signaling = true;
      }
      return true;
    });
  }

  {
    SimDay last_voice_day = std::numeric_limits<SimDay>::min();
    bool any_voice = false;
    loader.load("voice", feed_schema("voice").size(), [&](const ShardView& shard) {
      ShardCursors c{shard};
      std::vector<traffic::VoiceDayCalls> rows;
      rows.reserve(shard.rows);
      for (std::uint64_t i = 0; i < shard.rows; ++i) {
        std::int64_t day = 0;
        traffic::VoiceDayCalls d;
        if (!c[0].next_i64(day) || !c[1].next_u64(d.attempts) ||
            !c[2].next_u64(d.completed) || !c[3].next_u64(d.blocked) ||
            !c[4].next_u64(d.dropped))
          return false;
        d.day = static_cast<SimDay>(day);
        rows.push_back(d);
      }
      for (const auto& d : rows) {
        // Ledger days are chronological by construction; skip any
        // out-of-order remnant a quarantined shard left behind.
        if (any_voice && d.day <= last_voice_day) continue;
        ds.voice_calls.record_day(d);
        last_voice_day = d.day;
        any_voice = true;
      }
      return true;
    });
  }

  loader.load("homes", feed_schema("homes").size(), [&](const ShardView& shard) {
    ShardCursors c{shard};
    std::vector<analysis::HomeRecord> rows;
    rows.reserve(shard.rows);
    for (std::uint64_t i = 0; i < shard.rows; ++i) {
      std::int64_t user = 0;
      std::uint64_t site = 0, district = 0, county = 0, nights = 0;
      double night_hours = 0.0;
      if (!c[0].next_i64(user) || !c[1].next_u64(site) ||
          !c[2].next_u64(district) || !c[3].next_u64(county) ||
          !c[4].next_f64(night_hours) || !c[5].next_u64(nights))
        return false;
      if (user < 0) return false;
      analysis::HomeRecord h;
      h.user = UserId{static_cast<std::uint32_t>(user)};
      h.home_site = SiteId{static_cast<std::uint32_t>(site)};
      h.home_district = PostcodeDistrictId{static_cast<std::uint32_t>(district)};
      h.home_county = CountyId{static_cast<std::uint32_t>(county)};
      h.night_hours = night_hours;
      h.nights_observed = static_cast<int>(nights);
      rows.push_back(h);
    }
    ds.homes.insert(ds.homes.end(), rows.begin(), rows.end());
    return true;
  });

  loader.load("validation", feed_schema("validation").size(),
              [&](const ShardView& shard) {
    ShardCursors c{shard};
    std::vector<analysis::LadValidationPoint> rows;
    rows.reserve(shard.rows);
    for (std::uint64_t i = 0; i < shard.rows; ++i) {
      std::int64_t lad = 0, census = 0, inferred = 0;
      if (!c[0].next_i64(lad) || !c[1].next_i64(census) ||
          !c[2].next_i64(inferred))
        return false;
      if (lad < 0) return false;
      analysis::LadValidationPoint p;
      p.lad = LadId{static_cast<std::uint32_t>(lad)};
      p.census_population = census;
      p.inferred_residents = inferred;
      rows.push_back(p);
    }
    ds.home_validation.points.insert(ds.home_validation.points.end(),
                                     rows.begin(), rows.end());
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
    loader.load("series", feed_schema("series").size(), [&](const ShardView& shard) {
      ShardCursors c{shard};
      struct Row {
        std::uint64_t id, group, count;
        std::int64_t day;
        double sum;
      };
      std::vector<Row> rows;
      rows.reserve(shard.rows);
      for (std::uint64_t i = 0; i < shard.rows; ++i) {
        Row r{};
        if (!c[0].next_u64(r.id) || !c[1].next_u64(r.group) ||
            !c[2].next_i64(r.day) || !c[3].next_f64(r.sum) ||
            !c[4].next_u64(r.count))
          return false;
        rows.push_back(r);
      }
      for (const auto& r : rows) {
        DailySeries* target = series_target(r.id, r.group);
        if (target == nullptr) continue;
        target->restore(static_cast<SimDay>(r.day), r.sum,
                        static_cast<std::size_t>(r.count));
      }
      return true;
    });
  }

  loader.load("distributions", feed_schema("distributions").size(),
              [&](const ShardView& shard) {
    ShardCursors c{shard};
    struct Row {
      std::uint64_t id;
      std::int64_t day;
      stats::Summary summary;
    };
    std::vector<Row> rows;
    rows.reserve(shard.rows);
    for (std::uint64_t i = 0; i < shard.rows; ++i) {
      Row r{};
      std::uint64_t n = 0;
      if (!c[0].next_u64(r.id) || !c[1].next_i64(r.day) ||
          !c[2].next_u64(n) || !c[3].next_f64(r.summary.mean) ||
          !c[4].next_f64(r.summary.p10) || !c[5].next_f64(r.summary.p25) ||
          !c[6].next_f64(r.summary.median) || !c[7].next_f64(r.summary.p75) ||
          !c[8].next_f64(r.summary.p90))
        return false;
      r.summary.n = static_cast<std::size_t>(n);
      rows.push_back(r);
    }
    for (const auto& r : rows) {
      auto* target = r.id == kGyrationDist ? &ds.gyration_distribution
                     : r.id == kEntropyDist ? &ds.entropy_distribution
                                            : nullptr;
      if (target == nullptr) continue;
      target->restore_day(static_cast<SimDay>(r.day), r.summary);
    }
    return true;
  });

  loader.load("matrix", feed_schema("matrix").size(), [&](const ShardView& shard) {
    ShardCursors c{shard};
    struct Row {
      std::uint64_t kind, county, observations;
      std::int64_t day;
      double presence;
    };
    std::vector<Row> rows;
    rows.reserve(shard.rows);
    for (std::uint64_t i = 0; i < shard.rows; ++i) {
      Row r{};
      if (!c[0].next_u64(r.kind) || !c[1].next_u64(r.county) ||
          !c[2].next_i64(r.day) || !c[3].next_f64(r.presence) ||
          !c[4].next_u64(r.observations))
        return false;
      rows.push_back(r);
    }
    if (ds.london_matrix == nullptr) return true;
    for (const auto& r : rows) {
      const auto day = static_cast<SimDay>(r.day);
      if (r.kind == kPresenceRow && r.county < county_count) {
        ds.london_matrix->restore_presence(
            CountyId{static_cast<std::uint32_t>(r.county)}, day, r.presence);
      } else if (r.kind == kObservationsRow) {
        ds.london_matrix->restore_observations(
            day, static_cast<std::size_t>(r.observations));
      }
    }
    return true;
  });

  {
    std::vector<std::string> quality_feed_names;
    loader.load("quality", feed_schema("quality").size(), [&](const ShardView& shard) {
      ShardCursors c{shard};
      struct Row {
        std::uint64_t kind, a, b, cc, d;
        std::int64_t day;
        std::string name;
      };
      std::vector<Row> rows;
      rows.reserve(shard.rows);
      for (std::uint64_t i = 0; i < shard.rows; ++i) {
        Row r{};
        std::uint64_t name_len = 0;
        if (!c[0].next_u64(r.kind) || !c[1].next_u64(name_len)) return false;
        if (name_len > 4096) return false;
        if (name_len > 0) {
          const std::uint8_t* name = nullptr;
          if (!c[1].next_bytes(static_cast<std::size_t>(name_len), name))
            return false;
          r.name.assign(reinterpret_cast<const char*>(name),
                        static_cast<std::size_t>(name_len));
        }
        if (!c[2].next_i64(r.day) || !c[3].next_u64(r.a) ||
            !c[4].next_u64(r.b) || !c[5].next_u64(r.cc) ||
            !c[6].next_u64(r.d))
          return false;
        rows.push_back(r);
      }
      for (const auto& r : rows) {
        if (r.kind == kFeedTotalsRow) {
          telemetry::FeedQuality& f = ds.quality.feed(r.name);
          f.expected_records = r.a;
          f.observed_records = r.b;
          f.quarantined_records = r.cc;
          f.duplicate_records = r.d;
          quality_feed_names.push_back(r.name);
        } else if (r.kind == kFeedDayRow &&
                   r.a < quality_feed_names.size()) {
          telemetry::FeedQuality& f =
              ds.quality.feed(quality_feed_names[r.a]);
          f.days[static_cast<SimDay>(r.day)] = {r.b, r.cc};
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
      out.shards_quarantined == 0 && kpi_rows_dropped == 0 &&
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

  // Parse the manifest ourselves (not just stored_digest) because the audit
  // needs the feed list and the writer's physical accounting.
  std::vector<std::string> feeds;
  bool have_rows = false, have_bytes = false;
  std::uint64_t manifest_rows = 0, manifest_bytes = 0;
  {
    report.add_checks(kLaw);
    std::ifstream manifest(dir + "/" + kManifestFile, std::ios::binary);
    std::string line;
    if (!manifest || !std::getline(manifest, line) ||
        line != "cellstore-v1") {
      report.add_violation({std::string(kLaw), dir + "/" + kManifestFile,
                            0.0, 0.0,
                            "manifest missing or not cellstore-v1"});
      return report;
    }
    while (std::getline(manifest, line)) {
      if (line.rfind("feeds=", 0) == 0) {
        std::string list = line.substr(6);
        std::size_t start = 0;
        while (start <= list.size()) {
          const std::size_t comma = list.find(',', start);
          const std::size_t end =
              comma == std::string::npos ? list.size() : comma;
          if (end > start) feeds.push_back(list.substr(start, end - start));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      } else if (line.rfind("rows=", 0) == 0) {
        manifest_rows = std::strtoull(line.c_str() + 5, nullptr, 10);
        have_rows = true;
      } else if (line.rfind("bytes=", 0) == 0) {
        manifest_bytes = std::strtoull(line.c_str() + 6, nullptr, 10);
        have_bytes = true;
      }
    }
    if (feeds.empty()) {
      report.add_violation({std::string(kLaw), dir + "/" + kManifestFile,
                            0.0, 0.0, "manifest lists no feeds"});
      return report;
    }
  }

  std::uint64_t rows_read = 0;
  std::uint64_t bytes_read = 0;
  for (const std::string& feed : feeds) {
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
  if (have_rows) {
    report.add_checks(kLaw);
    if (rows_read != manifest_rows) {
      report.add_violation({std::string(kLaw), "rows",
                            static_cast<double>(manifest_rows),
                            static_cast<double>(rows_read),
                            "rows read back != rows the writer recorded"});
    }
  }
  if (have_bytes) {
    report.add_checks(kLaw);
    if (bytes_read != manifest_bytes) {
      report.add_violation({std::string(kLaw), "bytes",
                            static_cast<double>(manifest_bytes),
                            static_cast<double>(bytes_read),
                            "bytes read back != bytes the writer recorded"});
    }
  }
  return report;
}

}  // namespace cellscope::store
