#include "store/scan.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "obs/runtime.h"
#include "obs/timeline.h"

namespace cellscope::store {

namespace {

// Sequential full-shard decode of an integer column (kVarint surfaces as a
// non-negative int64, kDeltaZigzagVarint natively) into the `rows` slots
// at `out`. Day and cell deltas almost always fit one varint byte, so a
// one-byte varint is decoded inline and only longer ones go through
// get_varint. False on overrun, or when a value lies outside [lo, hi].
template <bool kDelta>
bool decode_i64_rows(const ColumnView& column, std::size_t rows,
                     std::int64_t lo, std::int64_t hi, std::int64_t* out) {
  const std::uint8_t* p = column.data;
  const std::uint8_t* const end = column.data + column.bytes;
  std::uint64_t prev = 0;  // unsigned: crafted deltas wrap instead of UB
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t raw = 0;
    if (p < end && *p < 0x80) {
      raw = *p++;
    } else if (!get_varint(p, end, raw)) {
      return false;
    }
    if constexpr (kDelta) {
      prev += static_cast<std::uint64_t>(zigzag_decode(raw));
      raw = prev;
    }
    const auto v = static_cast<std::int64_t>(raw);
    out[i] = v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  return min >= lo && max <= hi;  // also true for zero rows
}

// kBytes payloads frame each row as [varint length][bytes]; the views
// point into the payload. False when a length overruns it.
bool decode_bytes_column(const ColumnView& column, std::size_t rows,
                         std::vector<std::string_view>& out) {
  out.clear();
  out.reserve(rows);
  ColumnCursor cursor{column};
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t n = 0;
    const std::uint8_t* data = nullptr;
    if (!cursor.next_u64(n) ||
        !cursor.next_bytes(static_cast<std::size_t>(n), data))
      return false;
    out.emplace_back(reinterpret_cast<const char*>(data),
                     static_cast<std::size_t>(n));
  }
  return true;
}

// kRaw64 payloads are position-addressable: exactly 8 bytes per row, so a
// selection can gather survivors without touching the rest — the late
// materialization half of the scan contract.
bool raw64_payload_valid(const ColumnView& column, std::size_t rows) {
  return column.bytes / 8 == rows && column.bytes % 8 == 0;
}

double raw64_at(const ColumnView& column, std::size_t row) {
  return std::bit_cast<double>(read_u64(column.data + row * 8));
}

}  // namespace

FeedScanner::FeedScanner(std::shared_ptr<const FeedFileReader> reader,
                         const FeedSchema& schema, ScanOptions options)
    : schema_(schema),
      options_(std::move(options)),
      reader_(std::move(reader)) {
  if (!resolve_options()) return;
  totals_.bytes_file = reader_->file_bytes();
  if (reader_->status() != FeedFileReader::Status::kOk) {
    // Whole-file failure is one quarantine unit.
    error_ = reader_->error();
    totals_.shards_quarantined = 1;
    quarantine_log_.push_back(schema_.feed() + ": " + error_);
    return;
  }
  totals_.shards_quarantined = reader_->quarantined_shards();
  for (const auto& entry : reader_->quarantine_log())
    quarantine_log_.push_back(entry);
  start(reader_->shards());
  totals_.shards_total += reader_->quarantined_shards();
}

FeedScanner::FeedScanner(std::span<const ShardView> shards,
                         const FeedSchema& schema, ScanOptions options)
    : schema_(schema), options_(std::move(options)) {
  if (resolve_options()) start(shards);
}

bool FeedScanner::resolve_options() {
  if (options_.batch_rows == 0)
    options_.batch_rows = ScanOptions::kDefaultBatchRows;

  // Resolve the projection against the schema before looking at the data:
  // a bad projection is caller error, not data damage, so it fails the
  // scanner without charging the quarantine ledger.
  if (options_.columns.empty())
    for (const auto& column : schema_.columns())
      options_.columns.push_back(column.name);
  for (const auto& name : options_.columns) {
    const std::size_t index = schema_.column_index(name);
    if (index == FeedSchema::npos) {
      error_ = "unknown column '" + name + "' in feed '" + schema_.feed() +
               "'";
      return false;
    }
    projection_.push_back(index);
  }
  const auto& predicate = options_.predicate;
  if (predicate.day_bounded() && schema_.day_column() == FeedSchema::npos) {
    error_ = "feed '" + schema_.feed() + "' has no day column to filter on";
    return false;
  }
  if (predicate.keyed()) {
    key_col_ = schema_.column_index(predicate.key_column);
    if (key_col_ == FeedSchema::npos ||
        schema_.columns()[key_col_].encoding == Encoding::kBytes) {
      error_ = "key column '" + predicate.key_column +
               "' missing or not integer-encoded";
      return false;
    }
  }
  return true;
}

void FeedScanner::start(std::span<const ShardView> shards) {
  shards_ = shards;
  totals_.shards_total = shards.size();
  bool first = true;
  for (const auto& shard : shards) {
    footer_rows_ += shard.rows;
    footer_min_day_ = first ? shard.min_day
                            : std::min(footer_min_day_, shard.min_day);
    footer_max_day_ = first ? shard.max_day
                            : std::max(footer_max_day_, shard.max_day);
    first = false;
  }
  staged_i64_.resize(projection_.size());
  staged_f64_.resize(projection_.size());
  staged_bytes_.resize(projection_.size());
  ok_ = true;
}

FeedScanner::~FeedScanner() { record_metrics(); }

FeedScanner FeedScanner::open(const StoreHandle& store,
                              const FeedSchema& schema, ScanOptions options) {
  return FeedScanner{store.reader(schema.feed()), schema, std::move(options)};
}

FeedScanner FeedScanner::open(const std::string& dir,
                              const FeedSchema& schema, ScanOptions options) {
  return FeedScanner{std::make_shared<const FeedFileReader>(
                         dir + "/" + feed_file_name(schema.feed())),
                     schema, std::move(options)};
}

bool FeedScanner::next(ScanBatch& batch) {
  batch.rows_ = 0;
  batch.columns_.clear();
  if (!ok_) return false;
  while (staged_pos_ == staged_rows_)
    if (!stage_next_shard()) return false;

  const std::size_t n =
      std::min(options_.batch_rows, staged_rows_ - staged_pos_);
  batch.rows_ = n;
  batch.columns_.resize(projection_.size());
  for (std::size_t j = 0; j < projection_.size(); ++j) {
    const FeedColumn& schema_column = schema_.columns()[projection_[j]];
    ScanColumn& out = batch.columns_[j];
    out.name = schema_column.name;
    out.encoding = schema_column.encoding;
    out.i64 = {};
    out.f64 = {};
    out.bytes = {};
    switch (schema_column.encoding) {
      case Encoding::kRaw64:
        out.f64 = std::span{staged_f64_[j]}.subspan(staged_pos_, n);
        break;
      case Encoding::kBytes:
        out.bytes = std::span{staged_bytes_[j]}.subspan(staged_pos_, n);
        break;
      default:
        out.i64 = std::span{staged_i64_[j]}.subspan(staged_pos_, n);
    }
  }
  staged_pos_ += n;
  return true;
}

bool FeedScanner::stage_next_shard() {
  const auto& predicate = options_.predicate;
  while (shard_i_ < shards_.size()) {
    const ShardView& shard = shards_[shard_i_++];
    // Footer pushdown: the index entry carries the shard's day range, so a
    // disjoint shard is skipped before a single payload byte is read.
    if (shard.max_day < predicate.min_day ||
        shard.min_day > predicate.max_day) {
      ++totals_.shards_pruned;
      continue;
    }
    if (shard.columns.size() != schema_.size()) {
      quarantine("column count mismatch");
      continue;
    }
    if (!decode_shard(shard)) {
      // All-or-nothing: a failed shard stages zero rows, so a torn or
      // bit-flipped shard can never leak partial rows into a batch.
      staged_rows_ = 0;
      staged_pos_ = 0;
      quarantine("row decode or row checks failed");
      continue;
    }
    if (schema_.day_ordered()) ordered_floor_ = shard.max_day;
    ++totals_.shards_scanned;
    totals_.rows_decoded += shard.rows;
    totals_.rows_emitted += staged_rows_;
    obs::timeline().maybe_sample();
    if (staged_rows_ > 0) return true;
  }
  record_metrics();
  return false;
}

bool FeedScanner::decode_shard(const ShardView& shard) {
  staged_rows_ = 0;
  staged_pos_ = 0;
  const auto rows = static_cast<std::size_t>(shard.rows);
  const auto& predicate = options_.predicate;
  const std::size_t day_col = schema_.day_column();

  // A shard wholly inside the day range needs no per-row day test.
  const bool day_filter =
      predicate.day_bounded() && !(shard.min_day >= predicate.min_day &&
                                   shard.max_day <= predicate.max_day);
  const bool keyed = predicate.keyed();
  const bool identity = !day_filter && !keyed;

  // 1. Gate columns + selection. Only the columns the predicate needs are
  //    decoded here; everything else waits for step 2 (or never decodes).
  bool have_day = false;
  bool have_key = false;
  if (day_filter) {
    if (!decode_checked(shard, day_col, scratch_day_)) return false;
    have_day = true;
  }
  if (keyed) {
    if (key_col_ == day_col && have_day) {
      scratch_key_ = scratch_day_;
    } else if (!decode_checked(shard, key_col_, scratch_key_)) {
      return false;
    }
    have_key = true;
  }
  if (!identity) {
    selection_.clear();
    const std::vector<std::uint8_t>* mask = keyed ? predicate.key_mask
                                                  : nullptr;
    for (std::size_t i = 0; i < rows; ++i) {
      if (day_filter && (scratch_day_[i] < predicate.min_day ||
                         scratch_day_[i] > predicate.max_day))
        continue;
      if (mask != nullptr) {
        const std::int64_t key = scratch_key_[i];
        if (key < 0 || static_cast<std::uint64_t>(key) >= mask->size() ||
            (*mask)[static_cast<std::size_t>(key)] == 0)
          continue;
      }
      selection_.push_back(i);
    }
  }

  // 2. Materialize the projection for surviving rows only.
  for (std::size_t j = 0; j < projection_.size(); ++j) {
    const std::size_t ci = projection_[j];
    const ColumnView& column = shard.columns[ci];
    if (column.encoding == Encoding::kRaw64) {
      if (!raw64_payload_valid(column, rows)) return false;
      auto& out = staged_f64_[j];
      if (identity) {
        out.resize(rows);
        for (std::size_t i = 0; i < rows; ++i) out[i] = raw64_at(column, i);
        totals_.bytes_decoded += column.bytes;
      } else {
        out.resize(selection_.size());
        for (std::size_t k = 0; k < selection_.size(); ++k)
          out[k] = raw64_at(column, selection_[k]);
        totals_.bytes_decoded += selection_.size() * 8;
      }
      continue;
    }
    if (column.encoding == Encoding::kBytes) {
      // Never a gate column: decode the shard's worth, then gather the
      // selection in place (selection_ is ascending).
      auto& out = staged_bytes_[j];
      if (!decode_bytes_column(column, rows, out)) return false;
      totals_.bytes_decoded += column.bytes;
      if (!identity) {
        for (std::size_t k = 0; k < selection_.size(); ++k)
          out[k] = out[selection_[k]];
        out.resize(selection_.size());
      }
      continue;
    }
    // Variable-width columns are sequential-only: decode the shard's worth
    // once (reusing a gate column's scratch when it is the same column),
    // then keep all rows or gather the selection.
    const std::vector<std::int64_t>* decoded = nullptr;
    if (ci == day_col && have_day) {
      decoded = &scratch_day_;
    } else if (ci == key_col_ && have_key) {
      decoded = &scratch_key_;
    } else {
      if (!decode_checked(shard, ci, scratch_i64_)) return false;
      decoded = &scratch_i64_;
    }
    auto& out = staged_i64_[j];
    out.clear();
    if (identity && decoded == &scratch_i64_) {
      out.swap(scratch_i64_);
    } else if (identity) {
      out = *decoded;
    } else {
      out.reserve(selection_.size());
      for (const std::size_t i : selection_) out.push_back((*decoded)[i]);
    }
  }
  staged_rows_ = identity ? rows : selection_.size();
  return true;
}

bool FeedScanner::decode_checked(const ShardView& shard, std::size_t ci,
                                 std::vector<std::int64_t>& out) {
  const FeedColumn& spec = schema_.columns()[ci];
  const ColumnView& column = shard.columns[ci];
  const bool day = ci == schema_.day_column();
  std::int64_t lo = spec.min_value;
  std::int64_t hi = spec.max_value;
  if (day) {
    lo = std::max({lo, shard.min_day,
                   std::int64_t{std::numeric_limits<SimDay>::min()}});
    hi = std::min({hi, shard.max_day,
                   std::int64_t{std::numeric_limits<SimDay>::max()}});
  }
  const auto rows = static_cast<std::size_t>(shard.rows);
  out.resize(rows);
  const bool decoded =
      column.encoding == Encoding::kVarint
          ? decode_i64_rows<false>(column, rows, lo, hi, out.data())
          : decode_i64_rows<true>(column, rows, lo, hi, out.data());
  if (!decoded) return false;
  totals_.bytes_decoded += column.bytes;
  if (!day || !schema_.day_ordered() || out.empty()) return true;
  return out.front() >= ordered_floor_ &&
         std::is_sorted(out.begin(), out.end());
}

void FeedScanner::quarantine(const std::string& reason) {
  ++totals_.shards_quarantined;
  quarantine_log_.push_back(schema_.feed() + " shard " +
                            std::to_string(shard_i_ - 1) + ": " + reason);
}

void FeedScanner::record_metrics() {
  if (metrics_recorded_ || !obs::enabled()) return;
  metrics_recorded_ = true;
  auto& registry = obs::metrics();
  registry.add("scan.rows_decoded", totals_.rows_decoded);
  registry.add("scan.rows_emitted", totals_.rows_emitted);
  registry.add("scan.bytes_decoded", totals_.bytes_decoded);
  registry.add("scan.shards_pruned", totals_.shards_pruned);
  registry.add("scan.shards_quarantined", totals_.shards_quarantined);
  obs::track_bytes(obs::Subsystem::kStore, totals_.bytes_decoded);
}

// ------------------------------------------------- figure-pipeline adapters

std::optional<std::uint64_t> scan_scalar_u64(const StoreHandle& store,
                                             ScalarId id) {
  ScanOptions options;
  options.columns = {"id", "uvalue"};
  FeedScanner scanner =
      FeedScanner::open(store, feed_schema("scalars"), std::move(options));
  if (!scanner.ok()) return std::nullopt;
  std::optional<std::uint64_t> value;
  ScanBatch batch;
  while (scanner.next(batch)) {
    const auto ids = batch.column(0).i64;
    const auto uvalues = batch.column(1).i64;
    for (std::size_t i = 0; i < batch.rows(); ++i)
      if (static_cast<std::uint64_t>(ids[i]) == id)
        value = static_cast<std::uint64_t>(uvalues[i]);
  }
  if (scanner.totals().shards_quarantined > 0) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> scan_scalar_u64(const std::string& dir,
                                             ScalarId id) {
  return scan_scalar_u64(StoreHandle{dir, {"scalars"}}, id);
}

std::optional<analysis::KpiGroupSeries> scan_kpi_group_series(
    const StoreHandle& store, const analysis::CellGrouping& grouping,
    telemetry::KpiMetric metric, analysis::CellReduction reduction,
    std::int64_t min_day, std::int64_t max_day) {
  // Completeness gate: the scalar feed says how many KPI rows a complete
  // store holds. Any shortfall — quarantine, truncation, a missing feed —
  // and the caller must fall back to the replay path rather than aggregate
  // partial data as if it were the whole network.
  const auto expected = scan_scalar_u64(store, kKpiRowCount);
  if (!expected) return std::nullopt;

  const FeedSchema& schema = feed_schema("kpis");
  ScanOptions options;
  options.columns = {"day", "cell",
                     schema.columns()[kpi_metric_column(metric)].name};
  options.predicate.min_day = min_day;
  options.predicate.max_day = max_day;
  // With an all-group every cell counts, so no cell mask: whole shards
  // take the scanner's identity path. Otherwise only grouped cells pass.
  std::vector<std::uint8_t> mask;
  if (grouping.all_group == analysis::CellGrouping::kUngrouped) {
    mask.resize(grouping.group_of.size());
    for (std::size_t i = 0; i < mask.size(); ++i)
      mask[i] = grouping.group_of[i] != analysis::CellGrouping::kUngrouped;
    options.predicate.key_column = "cell";
    options.predicate.key_mask = &mask;
  }
  FeedScanner scanner = FeedScanner::open(store, schema, std::move(options));
  if (!scanner.ok() || scanner.totals().shards_quarantined > 0)
    return std::nullopt;
  if (scanner.footer_rows() != *expected) return std::nullopt;
  if (scanner.footer_rows() == 0) return analysis::KpiGroupSeries{};
  // The footer days narrow to SimDay below; one that does not fit is damage.
  if (scanner.footer_min_day() < std::numeric_limits<SimDay>::min() ||
      scanner.footer_max_day() > std::numeric_limits<SimDay>::max())
    return std::nullopt;

  const auto first_day = static_cast<SimDay>(
      std::max<std::int64_t>(scanner.footer_min_day(), min_day));
  const auto last_day = static_cast<SimDay>(
      std::min<std::int64_t>(scanner.footer_max_day(), max_day));
  if (first_day > last_day) return analysis::KpiGroupSeries{};

  // Every served row passed the scanner's row checks: its day lies in its
  // shard's footer range (so in [first_day, last_day]), days never go
  // back, and its cell fits 32 bits.
  analysis::KpiGroupSeriesBuilder builder{grouping, first_day, last_day,
                                          reduction};
  ScanBatch batch;
  while (scanner.next(batch)) {
    const auto days = batch.column(0).i64;
    const auto cells = batch.column(1).i64;
    const auto values = batch.column(2).f64;
    for (std::size_t i = 0; i < batch.rows(); ++i)
      builder.add(static_cast<SimDay>(days[i]),
                  static_cast<std::uint32_t>(cells[i]), values[i]);
  }
  // Decode-time quarantines surface after the loop: damaged stores never
  // produce a series.
  if (scanner.totals().shards_quarantined > 0) return std::nullopt;
  return builder.finish();
}

std::optional<analysis::KpiGroupSeries> scan_kpi_group_series(
    const std::string& dir, const analysis::CellGrouping& grouping,
    telemetry::KpiMetric metric, analysis::CellReduction reduction,
    std::int64_t min_day, std::int64_t max_day) {
  return scan_kpi_group_series(StoreHandle{dir, {"scalars", "kpis"}},
                               grouping, metric, reduction, min_day, max_day);
}

std::optional<analysis::GroupedDailySeries> scan_grouped_series(
    const StoreHandle& store, SeriesId id, std::size_t group_count,
    SimDay first_day, SimDay last_day) {
  // The series id doubles as a key predicate: only the requested series'
  // rows survive, so the raw64 sum column late-materializes per series.
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(id) + 1, 0);
  mask[static_cast<std::size_t>(id)] = 1;

  ScanOptions options;
  options.columns = {"group", "day", "sum", "count"};
  options.predicate.min_day = first_day;
  options.predicate.max_day = last_day;
  options.predicate.key_column = "series_id";
  options.predicate.key_mask = &mask;
  FeedScanner scanner =
      FeedScanner::open(store, feed_schema("series"), std::move(options));
  if (!scanner.ok()) return std::nullopt;

  analysis::GroupedDailySeries out{group_count, first_day, last_day};
  ScanBatch batch;
  while (scanner.next(batch)) {
    const auto groups = batch.column(0).i64;
    const auto days = batch.column(1).i64;
    const auto sums = batch.column(2).f64;
    const auto counts = batch.column(3).i64;
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      const auto group = static_cast<std::uint64_t>(groups[i]);
      if (group >= group_count) continue;
      out.group_mutable(static_cast<std::size_t>(group))
          .restore(static_cast<SimDay>(days[i]), sums[i],
                   static_cast<std::size_t>(counts[i]));
    }
  }
  if (scanner.totals().shards_quarantined > 0) return std::nullopt;
  return out;
}

std::optional<analysis::GroupedDailySeries> scan_grouped_series(
    const std::string& dir, SeriesId id, std::size_t group_count,
    SimDay first_day, SimDay last_day) {
  return scan_grouped_series(StoreHandle{dir, {"series"}}, id, group_count,
                             first_day, last_day);
}

std::optional<DailySeries> scan_daily_series(const StoreHandle& store,
                                             SeriesId id, SimDay first_day,
                                             SimDay last_day) {
  auto grouped = scan_grouped_series(store, id, 1, first_day, last_day);
  if (!grouped) return std::nullopt;
  return grouped->group(0);
}

std::optional<DailySeries> scan_daily_series(const std::string& dir,
                                             SeriesId id, SimDay first_day,
                                             SimDay last_day) {
  return scan_daily_series(StoreHandle{dir, {"series"}}, id, first_day,
                           last_day);
}

void note_scan_fallback(telemetry::FeedQualityReport& quality,
                        std::string_view what) {
  quality.quarantine("scan", 1);
  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("scan.fallbacks", 1);
    registry.add("scan.fallback." + std::string(what), 1);
  }
}

}  // namespace cellscope::store
