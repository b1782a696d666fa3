// An in-memory DatasetSink that can back a resume, for the in-process
// checkpoint/resume suites. It keeps every KPI row streamed to it, in
// order, and answers resume_kpis() from that record the way the on-disk
// store does: the first `rows` rows come back and later ones are dropped,
// or nullopt when it holds fewer rows than the checkpoint committed or the
// prefix does not end on the checkpoint's day boundary.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/simulator.h"

namespace cellscope::sim::testsupport {

class MemoryDatasetSink final : public DatasetSink {
 public:
  void on_kpi_day(SimDay /*day*/,
                  std::span<const telemetry::CellDayRecord> rows) override {
    rows_.insert(rows_.end(), rows.begin(), rows.end());
  }

  std::optional<std::vector<telemetry::CellDayRecord>> resume_kpis(
      SimDay day, std::uint64_t rows) override {
    if (rows > rows_.size()) return std::nullopt;
    if (rows > 0 && rows_[rows - 1].day > day) return std::nullopt;
    if (rows < rows_.size() && rows_[rows].day <= day) return std::nullopt;
    rows_.resize(rows);
    return rows_;
  }

  // Every row streamed (and kept through any resume), in stream order.
  [[nodiscard]] const std::vector<telemetry::CellDayRecord>& rows() const {
    return rows_;
  }

 private:
  std::vector<telemetry::CellDayRecord> rows_;
};

}  // namespace cellscope::sim::testsupport
