// The determinism contract, enforced.
//
// ScenarioConfig::worker_threads is documented as a pure runtime knob: the
// chunked worker pool (sim/pool.h) reduces per-chunk buffers in chunk-index
// order, so a run's Dataset must be BIT-identical — not merely close —
// whatever the thread count. This suite runs the same scenario at 1, 2, 3
// and 8 workers and compares every Dataset field at the bit level, float
// fields included, clean and under measurement-plane faults. Any reduction
// reordered by a future change fails here first.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/runtime.h"
#include "obs/timeline.h"
#include "sim/checkpoint.h"
#include "sim/dataset_audit.h"
#include "sim/simulator.h"
#include "support/dataset_compare.h"
#include "support/memory_sink.h"

namespace cellscope::sim {
namespace {

using testsupport::expect_datasets_identical;
using testsupport::MemoryDatasetSink;

// Small scale, small chunks: many chunks per day and (at 8 workers) more
// workers than chunks in flight, so the reorder window actually reorders.
ScenarioConfig matrix_config() {
  ScenarioConfig config = default_scenario();
  config.num_users = 2'500;
  config.seed = 987;
  config.user_chunk = 128;
  config.collect_binned_mobility = true;
  return config;
}

class ThreadMatrix : public ::testing::TestWithParam<int> {
 protected:
  // The single-worker run is the reference; computed once for the suite.
  static const Dataset& reference() {
    static const Dataset* serial = [] {
      auto config = matrix_config();
      config.worker_threads = 1;
      return new Dataset(run_scenario(config));
    }();
    return *serial;
  }
};

TEST_P(ThreadMatrix, DatasetBitIdenticalToSerial) {
  auto config = matrix_config();
  config.worker_threads = GetParam();
  const Dataset parallel = run_scenario(config);
  expect_datasets_identical(reference(), parallel);
}

INSTANTIATE_TEST_SUITE_P(Workers, ThreadMatrix, ::testing::Values(2, 3, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// The same contract must hold when the measurement plane is degraded: the
// fault plan keys off (user, day, cell, hour) — never off which worker
// handled the record — so the quality ledger is part of the stable output.
TEST(ThreadMatrixFaulted, QualityLedgerAndDatasetBitIdentical) {
  ScenarioConfig config = default_scenario();
  config.num_users = 1'500;
  config.seed = 4242;
  config.user_chunk = 96;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.02;
  config.faults.kpi_record_loss_rate = 0.01;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.faults.cell_outage_daily_prob = 0.01;

  config.worker_threads = 1;
  const Dataset serial = run_scenario(config);
  config.worker_threads = 3;
  const Dataset parallel = run_scenario(config);
  ASSERT_FALSE(serial.quality.empty());
  expect_datasets_identical(serial, parallel);
}

// The digest draws the line the engine promises: the thread count is not
// scenario identity, the chunk grid is.
TEST(DeterminismContract, DigestExcludesThreadsIncludesChunk) {
  auto a = matrix_config();
  auto b = matrix_config();
  b.worker_threads = 32;
  EXPECT_EQ(config_digest(a), config_digest(b));
  b.user_chunk = a.user_chunk * 2;
  EXPECT_NE(config_digest(a), config_digest(b));
}

// The conservation audit is passive bookkeeping: an audited run must
// produce the same Dataset, bit for bit, as an unaudited one — observing
// the run cannot change it. The audit flag, like worker_threads, stays out
// of the config digest for the same reason.
TEST(DeterminismContract, AuditedRunBitIdenticalToUnaudited) {
  auto config = matrix_config();
  config.worker_threads = 2;
  const Dataset plain = run_scenario(config);
  config.audit = true;
  const Dataset audited = run_scenario(config);
  EXPECT_GT(audited.audit_report.checks_evaluated(), 0u);
  EXPECT_TRUE(audited.audit_report.clean());
  expect_datasets_identical(plain, audited);
  EXPECT_EQ(config_digest(plain.config), config_digest(audited.config));
}

// The run-health timeline reads clocks, /proc and registry counters —
// never RNG streams or model state — so a sampled run must produce the
// same Dataset, bit for bit, as an unsampled one at every worker count.
// 1 worker (serial), 8 (contended) and 32 (far more workers than chunks
// in flight) all compare against one unsampled serial reference.
TEST(DeterminismContract, TimelineSampledRunBitIdenticalToUnsampled) {
  ScenarioConfig config = default_scenario();
  config.num_users = 1'500;
  config.seed = 31337;
  config.user_chunk = 128;

  obs::set_enabled(false);
  obs::reset();
  config.worker_threads = 1;
  const Dataset plain = run_scenario(config);
  const auto n_days = static_cast<std::uint64_t>(config.last_day() -
                                                 config.first_day() + 1);

  for (const int workers : {1, 8, 32}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    config.worker_threads = workers;
    obs::reset();
    obs::set_enabled(true);
    const Dataset sampled = run_scenario(config);
    obs::set_enabled(false);
    // The timeline really sampled: one day-boundary sample per simulated
    // day, with a live RSS reading and the registry-backed gauges wired in.
    EXPECT_GE(obs::timeline().sample_count(), n_days);
    const auto samples = obs::timeline().samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_GT(samples.back().rss_kb, 0);
    EXPECT_GT(samples.back().users_per_sec, 0.0);
    obs::reset();
    // ...and perturbed nothing.
    expect_datasets_identical(plain, sampled);
  }
}

TEST(DeterminismContract, RejectsBadChunkSize) {
  auto config = matrix_config();
  config.user_chunk = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.user_chunk = (1u << 20) + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ------------------------------------------------- checkpoint/resume
//
// The resume contract (sim/checkpoint.h): a run restored from any day's
// checkpoint must finish with a Dataset BIT-identical to the uninterrupted
// run, at any worker count on either side of the interruption. An
// in-memory sink records every day's blob from one full run; each test
// primes a fresh sink with one of those blobs and lets a second run
// fast-forward from it. The KPI rows are not in the blobs: a
// MemoryDatasetSink holding the full run's rows gives the committed prefix
// back, as the store's scratch feed does after a crash past the checkpoint.
class MemoryCheckpoint final : public CheckpointSink {
 public:
  [[nodiscard]] std::span<const std::uint8_t> resume_payload()
      const override {
    return {resume_payload_.data(), resume_payload_.size()};
  }
  [[nodiscard]] SimDay resume_day() const override { return resume_day_; }
  void on_day_complete(SimDay day,
                       const std::vector<std::uint8_t>& state) override {
    saved_.emplace_back(day, state);
  }

  void prime(SimDay day, std::vector<std::uint8_t> payload) {
    resume_day_ = day;
    resume_payload_ = std::move(payload);
  }
  [[nodiscard]] const std::vector<
      std::pair<SimDay, std::vector<std::uint8_t>>>&
  saved() const {
    return saved_;
  }

 private:
  SimDay resume_day_ = -1;
  std::vector<std::uint8_t> resume_payload_;
  std::vector<std::pair<SimDay, std::vector<std::uint8_t>>> saved_;
};

// The serial reference run, with every day's checkpoint blob recorded;
// computed once for the whole resume suite.
struct RecordedRun {
  Dataset dataset;
  MemoryCheckpoint checkpoints;
  MemoryDatasetSink rows;
};
const RecordedRun& recorded_reference() {
  static const RecordedRun* run = [] {
    auto* r = new RecordedRun;
    auto config = matrix_config();
    config.worker_threads = 1;
    Simulator simulator{config};
    r->dataset = simulator.run(&r->rows, &r->checkpoints);
    return r;
  }();
  return *run;
}

Dataset resume_from(const RecordedRun& full, std::size_t index, int workers,
                    bool audit = false) {
  MemoryCheckpoint source;
  const auto& saved = full.checkpoints.saved();
  source.prime(saved[index].first, saved[index].second);
  MemoryDatasetSink rows = full.rows;
  auto config = matrix_config();
  config.worker_threads = workers;
  config.audit = audit;
  Simulator simulator{config};
  Dataset resumed = simulator.run(&rows, &source);
  // The sink ends up holding the uninterrupted run's rows again.
  EXPECT_EQ(rows.rows().size(), full.rows.rows().size());
  return resumed;
}

class ResumeMatrix : public ::testing::TestWithParam<int> {};

TEST_P(ResumeMatrix, ResumedRunBitIdenticalToUninterrupted) {
  const RecordedRun& full = recorded_reference();
  ASSERT_GT(full.checkpoints.saved().size(), 3u);
  EXPECT_FALSE(full.dataset.recovery.resumed);
  const std::size_t mid = full.checkpoints.saved().size() / 2;
  const Dataset resumed = resume_from(full, mid, GetParam());
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resumed_from_day,
            full.checkpoints.saved()[mid].first);
  expect_datasets_identical(full.dataset, resumed);
}

INSTANTIATE_TEST_SUITE_P(Workers, ResumeMatrix, ::testing::Values(1, 2, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// The extreme restore points: the very first day (home detection barely
// begun, nothing calibrated) and the second-to-last (every calibration
// finalized, one day left to simulate).
TEST(CheckpointResume, BoundaryDaysResumeBitIdentical) {
  const RecordedRun& full = recorded_reference();
  const auto& saved = full.checkpoints.saved();
  ASSERT_GT(saved.size(), 3u);
  for (const std::size_t index : {std::size_t{0}, saved.size() - 2}) {
    SCOPED_TRACE("resumed after day " +
                 std::to_string(saved[index].first));
    const Dataset resumed = resume_from(full, index, 2);
    expect_datasets_identical(full.dataset, resumed);
  }
}

// A resumed run re-checkpoints the days it simulates; those blobs must be
// byte-identical to the full run's blobs for the same days — otherwise a
// second crash after a resume would restore drifted state.
TEST(CheckpointResume, ResumedCheckpointsByteIdenticalToFullRuns) {
  const RecordedRun& full = recorded_reference();
  const auto& saved = full.checkpoints.saved();
  ASSERT_GT(saved.size(), 3u);
  const std::size_t mid = saved.size() / 2;
  MemoryCheckpoint source;
  source.prime(saved[mid].first, saved[mid].second);
  MemoryDatasetSink rows = full.rows;
  auto config = matrix_config();
  config.worker_threads = 2;
  Simulator simulator{config};
  (void)simulator.run(&rows, &source);
  ASSERT_EQ(source.saved().size(), saved.size() - mid - 1);
  for (std::size_t i = 0; i < source.saved().size(); ++i) {
    EXPECT_EQ(source.saved()[i].first, saved[mid + 1 + i].first);
    EXPECT_EQ(source.saved()[i].second, saved[mid + 1 + i].second)
        << "checkpoint blob for day " << source.saved()[i].first;
  }
}

// The contract holds under measurement-plane faults too: the quality
// ledger, the fault plan's RNG stream and the degraded feeds all resume
// exactly where they stopped.
TEST(CheckpointResume, FaultedResumeBitIdenticalIncludingQualityLedger) {
  ScenarioConfig config = default_scenario();
  config.num_users = 1'500;
  config.seed = 4242;
  config.user_chunk = 96;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.05;
  config.faults.kpi_record_loss_rate = 0.05;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.worker_threads = 1;
  MemoryCheckpoint recorder;
  MemoryDatasetSink rows;
  Simulator full_sim{config};
  const Dataset full = full_sim.run(&rows, &recorder);
  ASSERT_FALSE(full.quality.empty());
  ASSERT_GT(recorder.saved().size(), 2u);

  const std::size_t mid = recorder.saved().size() / 2;
  MemoryCheckpoint source;
  source.prime(recorder.saved()[mid].first, recorder.saved()[mid].second);
  config.worker_threads = 3;
  Simulator resumed_sim{config};
  const Dataset resumed = resumed_sim.run(&rows, &source);
  expect_datasets_identical(full, resumed);
}

// checkpoint-consistency (audit/laws.h) only exists for resumed runs: the
// restored ledger prefixes must reconcile with the sizes recorded at the
// fast-forward. A clean resume passes it; a fresh run never evaluates it.
TEST(CheckpointResume, ResumedRunPassesCheckpointConsistencyLaw) {
  const RecordedRun& full = recorded_reference();
  const std::size_t mid = full.checkpoints.saved().size() / 2;
  const Dataset resumed = resume_from(full, mid, 2, /*audit=*/true);
  EXPECT_GT(resumed.audit_report.checks_for("checkpoint-consistency"), 0u);
  EXPECT_TRUE(resumed.audit_report.clean());
  const audit::AuditReport fresh = audit_dataset(full.dataset);
  EXPECT_EQ(fresh.checks_for("checkpoint-consistency"), 0u);
}

// A checkpoint is O(state): it carries how many KPI rows were committed,
// never the rows. Collecting the legacy RATs' KPIs too multiplies the row
// count and leaves every other piece of state the same size, so two runs
// that differ only in that switch must checkpoint equally large blobs day
// for day. Serialising the rows (about 100 bytes each) would split them
// by hundreds of kilobytes.
TEST(CheckpointResume, BlobSizeDoesNotGrowWithKpiRows) {
  struct Run {
    MemoryCheckpoint checkpoints;
    MemoryDatasetSink rows;
  };
  const auto record = [](bool legacy, Run& run) {
    ScenarioConfig config = default_scenario();
    config.num_users = 600;
    config.seed = 11;
    config.collect_legacy_kpis = legacy;
    Simulator simulator{config};
    (void)simulator.run(&run.rows, &run.checkpoints);
  };
  Run lte, all_rats;
  record(false, lte);
  record(true, all_rats);
  const auto& a = lte.checkpoints.saved();
  const auto& b = all_rats.checkpoints.saved();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(all_rats.rows.rows().size(), lte.rows.rows().size() + 5'000);
  const auto rows_through = [](const MemoryDatasetSink& sink, SimDay day) {
    std::size_t n = 0;
    for (const auto& r : sink.rows()) n += r.day <= day ? 1 : 0;
    return n;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SimDay day = a[i].first;
    const auto extra_rows =
        rows_through(all_rats.rows, day) - rows_through(lte.rows, day);
    const auto size_a = static_cast<std::int64_t>(a[i].second.size());
    const auto size_b = static_cast<std::int64_t>(b[i].second.size());
    // Varint-coded counters may differ in length by a few bytes.
    EXPECT_LT(std::abs(size_b - size_a), 256)
        << "day " << day << ": " << extra_rows << " more KPI rows";
  }
}

// A resume whose DatasetSink cannot hand back the committed rows (here: it
// never saw them) ignores the checkpoint and reruns from the first day,
// ending exactly where the uninterrupted run ends.
TEST(CheckpointResume, SinkWithoutTheCommittedRowsStartsFresh) {
  const RecordedRun& full = recorded_reference();
  const auto& saved = full.checkpoints.saved();
  const std::size_t last = saved.size() - 2;
  MemoryCheckpoint source;
  source.prime(saved[last].first, saved[last].second);
  MemoryDatasetSink empty;
  auto config = matrix_config();
  config.worker_threads = 2;
  Simulator simulator{config};
  const Dataset rerun = simulator.run(&empty, &source);
  EXPECT_FALSE(rerun.recovery.resumed);
  expect_datasets_identical(full.dataset, rerun);
}

// Without a sink, or with one that keeps no rows, there is nothing to
// resume the KPI feed from: that is a programming error, not a fresh run.
TEST(CheckpointResume, ResumeNeedsASinkThatCanResume) {
  const RecordedRun& full = recorded_reference();
  const auto& saved = full.checkpoints.saved();
  struct Forgetful final : DatasetSink {
    void on_kpi_day(SimDay, std::span<const telemetry::CellDayRecord>)
        override {}
  } forgetful;
  for (DatasetSink* sink : {static_cast<DatasetSink*>(nullptr),
                            static_cast<DatasetSink*>(&forgetful)}) {
    MemoryCheckpoint source;
    source.prime(saved.back().first, saved.back().second);
    Simulator simulator{matrix_config()};
    EXPECT_THROW((void)simulator.run(sink, &source), std::logic_error);
  }
}

// The checkpoint record's CRC only proves the bytes are the ones written;
// a record crafted with a valid CRC can still claim any count. Every count
// that sizes a container is bounded by the bytes left, so such a record
// throws BlobError instead of length_error or bad_alloc.
TEST(CheckpointResume, CraftedCountsThrowBlobError) {
  ScenarioConfig config = matrix_config();
  config.num_users = 300;
  Dataset substrate;
  build_substrate(config, substrate);
  const std::size_t n_users = substrate.population->subscribers.size();
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;
  // Version, user count, committed KPI rows, per-user flags, no appended
  // places, then whether homes are final.
  const auto prelude = [&](bool homes_final) {
    BlobWriter w;
    w.u64(2);
    w.u64(n_users);
    w.u64(0);
    for (std::size_t i = 0; i < n_users; ++i) w.u8(0);
    w.u64(0);
    w.u8(homes_final ? 1 : 0);
    return w;
  };
  // The run-local scalars that close the simulator's part of the blob.
  const auto scalars = [](BlobWriter& w) {
    w.f64(0.0);
    w.u8(0);
    w.f64(0.0);
    w.f64(0.0);
  };
  std::vector<std::pair<std::string, BlobWriter>> records;
  {
    BlobWriter w = prelude(false);
    w.u64(kHuge);  // home-detector users
    records.emplace_back("detector users", std::move(w));
  }
  {
    BlobWriter w = prelude(false);
    w.u64(1);
    w.u32(0);
    w.u32(1);
    w.i64(config.first_day());
    w.u64(kHuge);  // that user's night sites
    records.emplace_back("detector sites", std::move(w));
  }
  {
    BlobWriter w = prelude(true);
    scalars(w);
    w.u64(kHuge);  // homes
    records.emplace_back("homes", std::move(w));
  }
  {
    BlobWriter w = prelude(true);
    scalars(w);
    w.u64(0);
    w.u64(kHuge);  // validation points
    records.emplace_back("validation points", std::move(w));
  }
  for (auto& [what, w] : records) {
    MemoryCheckpoint source;
    source.prime(config.first_day(), w.take());
    MemoryDatasetSink rows;
    Simulator simulator{config};
    EXPECT_THROW((void)simulator.run(&rows, &source), BlobError) << what;
  }
}

}  // namespace
}  // namespace cellscope::sim
