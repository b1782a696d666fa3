#include "store/feeds.h"

#include <map>
#include <stdexcept>

#include "traffic/core_network.h"

namespace cellscope::store {

namespace {

using E = Encoding;

FeedSchema make_kpi_schema() {
  // day, cell, then the 11 KPI metrics as raw IEEE 754 bits. Column names
  // mirror the CellDayRecord fields so projections read naturally.
  std::vector<FeedColumn> columns{
      {"day", E::kDeltaZigzagVarint},
      {"cell", E::kDeltaZigzagVarint, 0, kMaxU32Id}};
  static constexpr const char* kMetricColumns[telemetry::kKpiMetricCount] = {
      "dl_volume_mb",        "ul_volume_mb",
      "active_dl_users",     "tti_utilization",
      "user_dl_throughput_mbps", "active_data_seconds",
      "connected_users",     "voice_volume_mb",
      "simultaneous_voice_users", "voice_dl_loss_pct",
      "voice_ul_loss_pct"};
  for (const char* name : kMetricColumns) columns.push_back({name, E::kRaw64});
  return FeedSchema{"kpis", std::move(columns), /*day_column=*/0,
                    /*day_ordered=*/true};
}

FeedSchema make_signaling_schema() {
  // day, then per event type: total, failures.
  std::vector<FeedColumn> columns{{"day", E::kDeltaZigzagVarint}};
  for (int t = 0; t < traffic::kSignalingEventTypeCount; ++t) {
    columns.push_back({"total_" + std::to_string(t), E::kVarint});
    columns.push_back({"failures_" + std::to_string(t), E::kVarint});
  }
  return FeedSchema{"signaling", std::move(columns), /*day_column=*/0};
}

std::map<std::string, FeedSchema, std::less<>> make_registry() {
  std::map<std::string, FeedSchema, std::less<>> registry;
  const auto add = [&](FeedSchema schema) {
    registry.emplace(schema.feed(), std::move(schema));
  };
  add(make_kpi_schema());
  add(make_signaling_schema());
  add(FeedSchema{"homes",
                 {{"user", E::kDeltaZigzagVarint, 0, kMaxU32Id},
                  {"home_site", E::kVarint},
                  {"home_district", E::kVarint},
                  {"home_county", E::kVarint},
                  {"night_hours", E::kRaw64},
                  {"nights_observed", E::kVarint}}});
  add(FeedSchema{"validation",
                 {{"lad", E::kDeltaZigzagVarint, 0, kMaxU32Id},
                  {"census_population", E::kDeltaZigzagVarint},
                  {"inferred_residents", E::kDeltaZigzagVarint}}});
  add(FeedSchema{"series",
                 {{"series_id", E::kVarint},
                  {"group", E::kVarint},
                  {"day", E::kDeltaZigzagVarint},
                  {"sum", E::kRaw64},
                  {"count", E::kVarint}},
                 /*day_column=*/2});
  add(FeedSchema{"distributions",
                 {{"dist_id", E::kVarint},
                  {"day", E::kDeltaZigzagVarint},
                  {"n", E::kVarint},
                  {"mean", E::kRaw64},
                  {"p10", E::kRaw64},
                  {"p25", E::kRaw64},
                  {"median", E::kRaw64},
                  {"p75", E::kRaw64},
                  {"p90", E::kRaw64}},
                 /*day_column=*/1});
  add(FeedSchema{"matrix",
                 {{"kind", E::kVarint},
                  {"county", E::kVarint},
                  {"day", E::kDeltaZigzagVarint},
                  {"presence", E::kRaw64},
                  {"observations", E::kVarint}},
                 /*day_column=*/2});
  add(FeedSchema{"quality",
                 {{"kind", E::kVarint},
                  {"name", E::kBytes},
                  {"day", E::kDeltaZigzagVarint},
                  {"a", E::kVarint},
                  {"b", E::kVarint},
                  {"c", E::kVarint},
                  {"d", E::kVarint}},
                 /*day_column=*/2});
  add(FeedSchema{"voice",
                 {{"day", E::kDeltaZigzagVarint},
                  {"attempts", E::kVarint},
                  {"completed", E::kVarint},
                  {"blocked", E::kVarint},
                  {"dropped", E::kVarint}},
                 /*day_column=*/0});
  add(FeedSchema{"scalars",
                 {{"id", E::kVarint},
                  {"fvalue", E::kRaw64},
                  {"uvalue", E::kVarint}}});
  return registry;
}

}  // namespace

const FeedSchema& feed_schema(std::string_view feed) {
  static const auto& registry = *new std::map<std::string, FeedSchema,
                                              std::less<>>(make_registry());
  const auto it = registry.find(feed);
  if (it == registry.end())
    throw std::out_of_range("feed_schema: unknown feed '" +
                            std::string(feed) + "'");
  return it->second;
}

}  // namespace cellscope::store
