// Named feed schemas: the single source of truth for what each cellstore
// feed looks like on disk.
//
// dataset_io.cc (the writer, and the per-feed row mapping of full replay)
// and scan.h (the scan engine, the one decoder) must agree byte-for-byte on
// column order, encodings and the on-disk row-kind/series/scalar ids — so
// all of it lives here, once.
// A FeedSchema names every column, fixes its Encoding, and knows which
// column (if any) carries the day the row was tagged with, which is what
// lets the scanner resolve projections by name and push day predicates
// down to the shard footer.
//
// The ids below are part of the CSF1 logical format: changing a value
// breaks every existing store. Append, never renumber.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.h"
#include "telemetry/kpi.h"

namespace cellscope::store {

// ------------------------------------------------------------- on-disk ids

// Series ids of the `series` feed: every DailySeries-shaped field of the
// Dataset, grouped ones first.
enum SeriesId : std::uint64_t {
  kEntropyNational = 0,
  kGyrationNational,
  kEntropyByRegion,
  kGyrationByRegion,
  kEntropyByCluster,
  kGyrationByCluster,
  kEntropyByBin,
  kGyrationByBin,
  kOffnetBusyHour,
  kInterconnectLoss,
  kRoamersActive,
};

enum DistId : std::uint64_t { kGyrationDist = 0, kEntropyDist = 1 };

enum MatrixRowKind : std::uint64_t { kPresenceRow = 0, kObservationsRow = 1 };

enum QualityRowKind : std::uint64_t { kFeedTotalsRow = 0, kFeedDayRow = 1 };

// Scalar ids of the `scalars` feed; each row is (id, double bits, u64).
enum ScalarId : std::uint64_t {
  kLteTimeShare = 0,
  kEligibleUsers,
  kLondonResidents,
  kLondonPresent,
  kLondonHomeCounty,
  kMatrixFirstDay,
  kMatrixLastDay,
  kFitSlope,
  kFitIntercept,
  kFitRSquared,
  kFitN,
  kExpectedMarketShare,
  kKpiRowCount,
  kHomeRowCount,
  kSignalingDayCount,
  kVoiceDayCount,
};

// ------------------------------------------------------------ feed schemas

struct FeedColumn {
  std::string name;
  Encoding encoding = Encoding::kRaw64;
  // The values a row of an integer column may hold. The scanner
  // quarantines a shard holding any other, so no reader narrows an id that
  // does not fit its type.
  std::int64_t min_value = std::numeric_limits<std::int64_t>::min();
  std::int64_t max_value = std::numeric_limits<std::int64_t>::max();
};

// The id range of a column holding a 32-bit unsigned id (cells, users, ...).
inline constexpr std::int64_t kMaxU32Id =
    std::numeric_limits<std::uint32_t>::max();

class FeedSchema {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  FeedSchema() = default;
  FeedSchema(std::string feed, std::vector<FeedColumn> columns,
             std::size_t day_column = npos, bool day_ordered = false)
      : feed_(std::move(feed)),
        columns_(std::move(columns)),
        day_column_(day_column),
        day_ordered_(day_ordered) {}

  [[nodiscard]] const std::string& feed() const { return feed_; }
  [[nodiscard]] const std::vector<FeedColumn>& columns() const {
    return columns_;
  }
  [[nodiscard]] std::size_t size() const { return columns_.size(); }

  // The column carrying the day each row was end_row()-tagged with, or
  // npos for feeds whose rows are not day-keyed (homes, validation,
  // scalars). Day-range predicates require a day column.
  [[nodiscard]] std::size_t day_column() const { return day_column_; }

  // True when the feed's rows are stored with days non-decreasing, within
  // each shard and from shard to shard (the KPI feed, which readers reduce
  // one day at a time).
  [[nodiscard]] bool day_ordered() const { return day_ordered_; }

  // Index of the column named `name`, or npos.
  [[nodiscard]] std::size_t column_index(std::string_view name) const {
    for (std::size_t i = 0; i < columns_.size(); ++i)
      if (columns_[i].name == name) return i;
    return npos;
  }

  // The bare encoding list FeedFileWriter takes.
  [[nodiscard]] std::vector<Encoding> encodings() const {
    std::vector<Encoding> out;
    out.reserve(columns_.size());
    for (const auto& c : columns_) out.push_back(c.encoding);
    return out;
  }

 private:
  std::string feed_;
  std::vector<FeedColumn> columns_;
  std::size_t day_column_ = npos;
  bool day_ordered_ = false;
};

// The schema of one of the dataset_feeds(); throws std::out_of_range on an
// unknown feed name. The returned reference is to a process-wide constant.
[[nodiscard]] const FeedSchema& feed_schema(std::string_view feed);

// Column index of a KPI metric inside the "kpis" schema (day and cell come
// first, then the metrics in KpiMetric order).
[[nodiscard]] inline std::size_t kpi_metric_column(
    telemetry::KpiMetric metric) {
  return 2 + static_cast<std::size_t>(metric);
}

}  // namespace cellscope::store
