// Crash/resume, the hard way: a child process SIGKILLs itself mid-run —
// no destructors, no flushes, exactly what a power cut or OOM kill leaves
// behind — and a fresh process resumes from the surviving store directory.
// The contract (sim/checkpoint.h, docs/RECOVERY.md) is that the resumed
// run's Dataset is bit-identical and the published store byte-identical to
// a run that was never interrupted, clean and under measurement-plane
// faults alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <span>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/atomic_file.h"
#include "sim/interrupt.h"
#include "sim/simulator.h"
#include "store/checkpoint.h"
#include "store/dataset_io.h"
#include "store/format.h"
#include "store/shard.h"
#include "support/dataset_compare.h"

namespace cellscope::store {
namespace {

sim::ScenarioConfig crash_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 600;
  config.seed = 77;
  config.user_chunk = 128;
  config.worker_threads = 2;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "crash_resume_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Both directories hold exactly the same file names with exactly the same
// bytes — the store-level half of the resume contract.
void expect_dirs_byte_identical(const std::string& a, const std::string& b) {
  std::vector<std::string> names_a, names_b;
  for (const auto& entry : std::filesystem::directory_iterator(a))
    names_a.push_back(entry.path().filename().string());
  for (const auto& entry : std::filesystem::directory_iterator(b))
    names_b.push_back(entry.path().filename().string());
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  ASSERT_EQ(names_a, names_b);
  for (const std::string& name : names_a)
    EXPECT_EQ(slurp(a + "/" + name), slurp(b + "/" + name))
        << name << " differs between " << a << " and " << b;
}

// The child simulates with crash injection armed: right after the n-th
// day's checkpoint publishes, it SIGKILLs itself. No gtest machinery in
// the child — it either dies by signal (expected) or exits 0 (a bug the
// parent's WIFSIGNALED assert catches).
void crash_child(const sim::ScenarioConfig& config, const std::string& dir,
                 int days) {
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    StoreRunOptions options;
    options.kill_after_days = days;
    (void)simulate_to_store(config, dir, options);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

void expect_crash_resume_identical(const sim::ScenarioConfig& config,
                                   const std::string& name) {
  const std::string crash_dir = fresh_dir(name);
  const std::string ref_dir = fresh_dir(name + "_ref");
  crash_child(config, crash_dir, 25);

  // The wreckage: a checkpoint, no published manifest (the run never
  // finished), and in-flight *.tmp litter is possible.
  EXPECT_TRUE(std::filesystem::exists(crash_dir + "/checkpoint.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(crash_dir + "/" +
                                       std::string(kManifestFile)));

  // A fresh process resumes from the wreckage and runs to completion.
  const sim::Dataset resumed = simulate_to_store(config, crash_dir);
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_FALSE(std::filesystem::exists(crash_dir + "/checkpoint.ckpt"))
      << "completed run must clear its checkpoint";

  const sim::Dataset oneshot = simulate_to_store(config, ref_dir);
  EXPECT_FALSE(oneshot.recovery.resumed);
  sim::testsupport::expect_datasets_identical(oneshot, resumed);
  expect_dirs_byte_identical(ref_dir, crash_dir);

  // And the resumed store replays complete.
  const ReadOutcome outcome = read_dataset(crash_dir, config);
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  EXPECT_TRUE(outcome.complete());
}

TEST(CrashResume, SigkillMidRunResumesByteIdentical) {
  expect_crash_resume_identical(crash_config(), "clean");
}

TEST(CrashResume, FaultedSigkillMidRunResumesByteIdentical) {
  sim::ScenarioConfig config = crash_config();
  config.seed = 31337;
  config.faults.observation_loss_rate = 0.05;
  config.faults.kpi_record_loss_rate = 0.05;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  expect_crash_resume_identical(config, "faulted");
}

// ------------------------------------------- the durable KPI prefix
//
// Checkpoints hold no KPI rows: the resumed run takes them back from the
// kpis feed's scratch file and its open-shard record, which every
// on_kpi_day() leaves durable. The cases below damage that pair under a
// valid checkpoint, or let it run ahead of the checkpoint, and demand the
// same end state as a run that was never interrupted.

// 492 LTE cells report each KPI day from day 21, so by day 60 the scratch
// file holds two flushed 8,192-row shards and the open shard 2,804 rows.
constexpr int kPrefixDays = 60;

std::string kpis_scratch(const std::string& dir) {
  return dir + "/" + feed_file_name("kpis") + kTmpSuffix;
}
std::string kpis_record(const std::string& dir) {
  return dir + "/" + feed_file_name("kpis") + kOpenRecordSuffix;
}

// The uninterrupted run every case must end up equal to, in a directory
// of its own per test (ctest runs the tests as parallel processes).
struct Reference {
  std::string dir;
  sim::Dataset dataset;
};
const Reference& reference() {
  static const Reference* ref = [] {
    auto* r = new Reference;
    r->dir = fresh_dir(std::string("ref_") + ::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name());
    r->dataset = simulate_to_store(crash_config(), r->dir);
    return r;
  }();
  return *ref;
}

// Copies the wreckage in `from` to a fresh directory, applies `damage`,
// resumes (or restarts) the run there and checks it against reference().
// Returns whether the run resumed.
template <typename Damage>
bool run_damaged(const std::string& from, const std::string& name,
                 Damage&& damage) {
  const std::string dir = fresh_dir(name);
  std::filesystem::copy(from, dir);
  damage(dir);
  const sim::Dataset run = simulate_to_store(crash_config(), dir);
  sim::testsupport::expect_datasets_identical(reference().dataset, run);
  expect_dirs_byte_identical(reference().dir, dir);
  return run.recovery.resumed;
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f{path, std::ios::binary | std::ios::in | std::ios::out};
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

// Offsets where a structural field of the scratch pair begins, read off
// the open-shard record: every field of the record itself, and the file
// header plus each flushed shard's header, column directory, payload and
// last byte in the scratch file.
struct Boundaries {
  std::vector<std::uint64_t> record;
  std::vector<std::uint64_t> data;
};
Boundaries scratch_boundaries(const std::string& dir) {
  constexpr std::uint64_t kEntryBytes = 48;
  constexpr std::uint64_t kShardDirEnd = 32 + 16 * 13;  // 13 KPI columns
  const auto record = slurp(kpis_record(dir));
  Boundaries b;
  const std::uint64_t count = read_u64(record.data() + 8);
  b.record = {0, 4, 8, 16};
  for (std::uint64_t i = 1; i < count; ++i) b.record.push_back(16 + i * 48);
  const std::uint64_t open = 16 + count * kEntryBytes + 8;
  b.record.insert(b.record.end(),
                  {open - 8, open, open + 32, open + kShardDirEnd,
                   (open + record.size()) / 2, record.size() - 4,
                   record.size() - 1});
  b.data = {0, 4, 8};
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t* e = record.data() + 16 + i * kEntryBytes;
    const std::uint64_t offset = read_u64(e);
    const std::uint64_t length = read_u64(e + 8);
    b.data.insert(b.data.end(),
                  {offset + 32, offset + kShardDirEnd, offset + length / 2,
                   offset + length - 1});
  }
  return b;
}

TEST(CrashResume, DamagedKpiPrefixResumesOrRestartsByteIdentical) {
  const sim::ScenarioConfig config = crash_config();
  const std::string wreck = fresh_dir("prefix_wreck");
  crash_child(config, wreck, kPrefixDays);
  ASSERT_TRUE(std::filesystem::exists(kpis_scratch(wreck)));
  ASSERT_TRUE(std::filesystem::exists(kpis_record(wreck)));
  const Boundaries at = scratch_boundaries(wreck);
  ASSERT_GT(at.data.size(), 3u) << "the prefix should span flushed shards";

  // Undamaged, the wreckage resumes.
  EXPECT_TRUE(run_damaged(wreck, "prefix_intact", [](const std::string&) {}));

  const std::pair<const char*, const std::vector<std::uint64_t>*> files[] = {
      {"record", &at.record}, {"data", &at.data}};
  for (const auto& [which, offsets] : files) {
    const auto path_of = [which](const std::string& dir) {
      return std::string(which) == "record" ? kpis_record(dir)
                                            : kpis_scratch(dir);
    };
    for (const std::uint64_t offset : *offsets) {
      const std::string name = std::string(which) + "_" +
                               std::to_string(offset);
      SCOPED_TRACE(name);
      (void)run_damaged(wreck, "cut_" + name, [&](const std::string& dir) {
        std::filesystem::resize_file(path_of(dir), offset);
      });
      (void)run_damaged(wreck, "flip_" + name, [&](const std::string& dir) {
        flip_byte(path_of(dir), offset);
      });
    }
  }
}

// A crash between a day's on_kpi_day() and its checkpoint leaves the feed
// ahead of the checkpoint. Here it is ahead by twelve days and one shard
// flush: the checkpoint's prefix ends inside a flushed shard, so the
// resume must cut that shard off, buffer its leading rows again, and still
// publish the reference's bytes.
TEST(CrashResume, KpiFeedAheadOfCheckpointIsCutBackToItsPrefix) {
  const sim::ScenarioConfig config = crash_config();
  const std::string early = fresh_dir("ahead_early");
  const std::string late = fresh_dir("ahead_late");
  crash_child(config, early, kPrefixDays);
  crash_child(config, late, kPrefixDays + 12);
  ASSERT_GT(scratch_boundaries(late).data.size(),
            scratch_boundaries(early).data.size());
  EXPECT_TRUE(run_damaged(late, "ahead", [&](const std::string& dir) {
    std::filesystem::copy_file(
        early + "/checkpoint.ckpt", dir + "/checkpoint.ckpt",
        std::filesystem::copy_options::overwrite_existing);
  }));
}

// SIGINT/SIGTERM stop a run at a day boundary with RunInterrupted: the
// writer unwinds without publishing, but keeps the durable KPI prefix, and
// rerunning the same command resumes from it byte-identically.
TEST(CrashResume, InterruptedRunResumesByteIdentical) {
  // Requests an interrupt once `after` days have been checkpointed.
  class InterruptingCheckpoint final : public sim::CheckpointSink {
   public:
    InterruptingCheckpoint(CheckpointManager& inner, int after)
        : inner_(inner), after_(after) {}
    std::span<const std::uint8_t> resume_payload() const override {
      return inner_.resume_payload();
    }
    SimDay resume_day() const override { return inner_.resume_day(); }
    void on_day_complete(SimDay day,
                         const std::vector<std::uint8_t>& state) override {
      inner_.on_day_complete(day, state);
      if (--after_ == 0) sim::request_interrupt();
    }

   private:
    CheckpointManager& inner_;
    int after_;
  };

  const sim::ScenarioConfig config = crash_config();
  const std::string dir = fresh_dir("interrupted");
  sim::reset_interrupt();
  SimDay stopped_after = -1;
  try {
    DatasetWriter writer{dir};
    CheckpointManager manager{dir, sim::config_digest(config)};
    InterruptingCheckpoint checkpoint{manager, kPrefixDays};
    (void)sim::Simulator{config}.run(&writer, &checkpoint);
    ADD_FAILURE() << "the run was not interrupted";
  } catch (const sim::RunInterrupted& stop) {
    stopped_after = stop.last_completed_day;
  }
  sim::reset_interrupt();
  EXPECT_EQ(stopped_after, config.first_day() + kPrefixDays - 1);
  EXPECT_TRUE(std::filesystem::exists(kpis_scratch(dir)));
  EXPECT_TRUE(std::filesystem::exists(kpis_record(dir)));

  const sim::Dataset resumed = simulate_to_store(config, dir);
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resumed_from_day, stopped_after);
  sim::testsupport::expect_datasets_identical(reference().dataset, resumed);
  expect_dirs_byte_identical(reference().dir, dir);
}

}  // namespace
}  // namespace cellscope::store
