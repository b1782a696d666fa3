// Day-granular checkpoint/resume: the simulator side.
//
// The simulator streams days; after each completed day it can hand a
// CheckpointSink one serialized blob holding everything needed to resume
// from the NEXT day: the number of KPI rows committed so far, the run-local
// evolving state (user states, home-detector accumulators, calibration
// scalars) and the small accumulated Dataset fields. The KPI rows are not
// in it: the DatasetSink already holds them durably, so the blob stays
// O(state) however long the run. On the next run the sink supplies the
// stored blob and the high-water mark, and Simulator::run() fast-forwards:
// substrate and static per-user structures are rebuilt from the config
// (pure functions of the seed), the DatasetSink hands back the committed
// KPI rows (DatasetSink::resume_kpis, sim/simulator.h), the blob restores
// the evolving state, and the day loop starts at resume_day() + 1.
//
// The contract — enforced in test_determinism and test_crash_resume — is
// bitwise: an interrupted-then-resumed run yields a Dataset bit-identical
// (and store bytes byte-identical) to an uninterrupted one, at any worker
// count on either side of the interruption. That is why every float here
// round-trips as raw IEEE-754 bits (common/blob.h) and why the home
// detector keeps ordered accumulators (analysis/home_detection.h).
//
// The durable implementation (file format, digest keying, crash
// atomicity) lives in store/checkpoint.h; tests substitute in-memory
// sinks. See docs/RECOVERY.md for the full recovery story.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/blob.h"
#include "common/simtime.h"

namespace cellscope::sim {

struct Dataset;

class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  // State saved by a previous run, if any. An empty span means no resumable
  // progress: the run starts fresh from the first day.
  [[nodiscard]] virtual std::span<const std::uint8_t> resume_payload()
      const = 0;
  // Last fully completed day of the saved state; meaningless when
  // resume_payload() is empty.
  [[nodiscard]] virtual SimDay resume_day() const = 0;

  // Called once after each day fully completes (accumulators reduced, KPI
  // rows published to, and made durable by, the DatasetSink), with the
  // serialized resumable state as of that day. Implementations must
  // persist atomically: a crash mid-save must leave the previous day's
  // checkpoint intact.
  virtual void on_day_complete(SimDay day,
                               const std::vector<std::uint8_t>& state) = 0;
};

// (De)serializes the Dataset portion of a checkpoint blob: every
// accumulated field a resumed run appends to, except the KPI rows (the
// DatasetSink's). The run-local portion (user states, detector
// accumulators, calibration scalars) is handled by the simulator itself;
// both live in one blob, versioned by the simulator. restore_dataset_state
// throws BlobError on truncated or inconsistent input, including counts
// and ranges larger than the input or the scenario allows.
void save_dataset_state(const Dataset& ds, BlobWriter& w);
void restore_dataset_state(Dataset& ds, BlobReader& r);

}  // namespace cellscope::sim
