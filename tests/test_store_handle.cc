// StoreHandle (src/store/handle.h): one verified store generation shared by
// many scans.
//
//   * sharing   — four threads scanning through one handle get answers
//     bit-identical to the fresh-open directory adapters;
//   * lifetime  — a scanner keeps its borrowed reader (and mapping) alive
//     after the handle that lent it is gone;
//   * generations — QueryService picks up a store republished by atomic
//     rename, or rewritten in place with its mtime put back, on its next
//     miss, and never keeps a damaged generation, so it degrades while the
//     store is damaged and serves again once repaired.
//
// The concurrent tests are in the TSan CI slice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/network_metrics.h"
#include "serve/query.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "store/feeds.h"
#include "store/handle.h"
#include "store/scan.h"

namespace cellscope::store {
namespace {

sim::ScenarioConfig tiny_config(std::uint64_t seed) {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 500;
  config.seed = seed;
  config.user_chunk = 128;
  config.worker_threads = 2;
  return config;
}

const std::vector<std::string> kServedFeeds = {"scalars", "kpis", "series"};

// Two stores of different seeds, so a swap between them changes answers.
// PID-keyed paths: ctest runs each test in its own process.
class StoreHandleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new std::string(::testing::TempDir() + "cellhandle_" +
                            std::to_string(::getpid()));
    std::filesystem::remove_all(*base_);
    data_a_ = new sim::Dataset(simulate_to_store(tiny_config(77), dir_a()));
    data_b_ = new sim::Dataset(simulate_to_store(tiny_config(78), dir_b()));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*base_);
    delete data_a_;
    data_a_ = nullptr;
    delete data_b_;
    data_b_ = nullptr;
    delete base_;
    base_ = nullptr;
  }

  static std::string dir_a() { return *base_ + "/a"; }
  static std::string dir_b() { return *base_ + "/b"; }
  static const sim::Dataset& data_a() { return *data_a_; }

  static std::string clone(const std::string& from, const std::string& name) {
    const std::string dir = *base_ + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::copy(from, dir);
    return dir;
  }

  // Republishes `feed` of `to` with the bytes of `from`'s, the way the
  // writer publishes: a temp file renamed over the live name.
  static void publish_feed(const std::string& from, const std::string& to,
                           const std::string& feed) {
    const std::string live = to + "/" + feed_file_name(feed);
    std::filesystem::copy_file(
        from + "/" + feed_file_name(feed), live + ".tmp",
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::rename(live + ".tmp", live);
  }

  static analysis::CellGrouping region() {
    return analysis::group_by_region(*data_a().geography, *data_a().topology);
  }

 private:
  static std::string* base_;
  static sim::Dataset* data_a_;
  static sim::Dataset* data_b_;
};
std::string* StoreHandleTest::base_ = nullptr;
sim::Dataset* StoreHandleTest::data_a_ = nullptr;
sim::Dataset* StoreHandleTest::data_b_ = nullptr;

// Every adapter answer over `dir` (fresh opens) or `store` (shared handle),
// encoded bit-exactly.
template <typename Store>
std::vector<std::string> all_answers(const Store& store,
                                     const analysis::CellGrouping& grouping,
                                     const sim::ScenarioConfig& config) {
  const SimDay first = config.first_day();
  const SimDay last = config.last_day();
  const std::int64_t kpi_first = config.kpi_first_day();
  std::vector<std::string> out;
  for (const auto id : {kKpiRowCount, kEligibleUsers, kLondonResidents}) {
    const auto v = scan_scalar_u64(store, id);
    out.push_back(v ? serve::encode_scalar(*v) : "refused");
  }
  for (const auto id : {kRoamersActive, kOffnetBusyHour, kInterconnectLoss}) {
    const auto v = scan_daily_series(store, id, first, last);
    out.push_back(v ? serve::encode_daily(*v) : "refused");
  }
  {
    const auto v = scan_grouped_series(store, kGyrationByRegion,
                                       grouping.group_count(), first, last);
    out.push_back(v ? serve::encode_grouped(*v) : "refused");
  }
  for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
    const auto metric = static_cast<telemetry::KpiMetric>(m);
    const auto full = scan_kpi_group_series(store, grouping, metric);
    out.push_back(full ? serve::encode_kpi(*full) : "refused");
    const auto week = scan_kpi_group_series(
        store, grouping, metric, analysis::CellReduction::kMedian,
        kpi_first + m, kpi_first + m + 6);
    out.push_back(week ? serve::encode_kpi(*week) : "refused");
  }
  return out;
}

TEST_F(StoreHandleTest, SharedByFourThreadsMatchesFreshOpenAdapters) {
  const auto grouping = region();
  const auto config = tiny_config(77);
  const auto expected = all_answers(dir_a(), grouping, config);
  for (const auto& answer : expected) ASSERT_NE(answer, "refused");

  const StoreHandle handle{dir_a(), kServedFeeds};
  ASSERT_TRUE(handle.intact());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int round = 0; round < 2; ++round)
        if (all_answers(handle, grouping, config) != expected) ++mismatches;
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(StoreHandleTest, ScannerOutlivesTheHandleThatLentItsReader) {
  std::optional<FeedScanner> scanner;
  {
    const StoreHandle handle{dir_a(), {"kpis"}};
    scanner.emplace(FeedScanner::open(handle, feed_schema("kpis"), {}));
  }
  ASSERT_TRUE(scanner->ok()) << scanner->error();
  ScanBatch batch;
  std::uint64_t rows = 0;
  while (scanner->next(batch)) rows += batch.rows();
  EXPECT_EQ(rows, data_a().kpis.records().size());
  EXPECT_EQ(scanner->totals().shards_quarantined, 0u);
}

TEST_F(StoreHandleTest, AFeedOutsideTheHandleIsACallerError) {
  const StoreHandle handle{dir_a(), {"scalars"}};
  EXPECT_THROW((void)handle.reader("kpis"), std::invalid_argument);
  EXPECT_THROW((void)scan_grouped_series(handle, kGyrationNational, 1, 0, 1),
               std::invalid_argument);
}

TEST_F(StoreHandleTest, ChangedOnDiskSeesRenameAndDeletion) {
  const std::string dir = clone(dir_a(), "changes");
  const StoreHandle handle{dir, kServedFeeds};
  EXPECT_FALSE(handle.changed_on_disk());

  publish_feed(dir_a(), dir, "series");  // same bytes, new inode
  EXPECT_TRUE(handle.changed_on_disk());

  const StoreHandle after_rename{dir, kServedFeeds};
  EXPECT_FALSE(after_rename.changed_on_disk());
  std::filesystem::remove(dir + "/" + feed_file_name("scalars"));
  EXPECT_TRUE(after_rename.changed_on_disk());
  EXPECT_FALSE(StoreHandle(dir, kServedFeeds).intact());
}

TEST_F(StoreHandleTest, ServicePicksUpAStoreRepublishedByRename) {
  const std::string dir = clone(dir_a(), "republish");
  const auto grouping = region();
  serve::QueryService service(dir, "digest");
  service.register_grouping("region", grouping);
  serve::Query dl;
  dl.kind = serve::QueryKind::kKpiGroupSeries;
  dl.metric = telemetry::KpiMetric::kDlVolume;
  dl.grouping = "region";
  serve::Query ul = dl;
  ul.metric = telemetry::KpiMetric::kUlVolume;
  const auto answer = [&](const std::string& from, const serve::Query& q) {
    return serve::encode_kpi(*scan_kpi_group_series(from, grouping, q.metric));
  };

  const auto before = service.run(dl);
  ASSERT_EQ(before.status, serve::QueryStatus::kOk);
  EXPECT_EQ(before.value->payload, answer(dir_a(), dl));

  for (const auto& feed : kServedFeeds) publish_feed(dir_b(), dir, feed);

  // The cached answer stays a hit; the next miss opens the new generation.
  EXPECT_TRUE(service.run(dl).cache_hit);
  const auto after = service.run(ul);
  ASSERT_EQ(after.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(after.cache_hit);
  ASSERT_NE(answer(dir_b(), ul), answer(dir_a(), ul));
  EXPECT_EQ(after.value->payload, answer(dir_b(), ul));
}

TEST_F(StoreHandleTest, ServiceDegradesOnEveryRequestUntilRepaired) {
  const std::string dir = clone(dir_a(), "damaged");
  const std::string kpis = dir + "/" + feed_file_name("kpis");
  {
    // Flip one byte inside the first KPI shard, republished by rename so
    // the damage is a new generation.
    std::vector<char> bytes(std::filesystem::file_size(kpis));
    std::ifstream(kpis, std::ios::binary)
        .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes[64] = static_cast<char>(bytes[64] ^ 0x40);
    std::ofstream(kpis + ".tmp", std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::filesystem::rename(kpis + ".tmp", kpis);
  }
  serve::QueryService service(dir, "digest");
  service.register_grouping("region", region());
  telemetry::FeedQualityReport quality;
  service.attach_quality(&quality);
  serve::Query q;
  q.kind = serve::QueryKind::kKpiGroupSeries;
  q.metric = telemetry::KpiMetric::kDlVolume;
  q.grouping = "region";

  EXPECT_EQ(service.run(q).status, serve::QueryStatus::kDegraded);
  EXPECT_EQ(service.run(q).status, serve::QueryStatus::kDegraded);
  EXPECT_EQ(quality.feed("scan").quarantined_records, 2u);

  publish_feed(dir_a(), dir, "kpis");  // repaired
  const auto repaired = service.run(q);
  ASSERT_EQ(repaired.status, serve::QueryStatus::kOk);
  EXPECT_EQ(repaired.value->payload,
            serve::encode_kpi(*scan_kpi_group_series(
                dir_a(), region(), telemetry::KpiMetric::kDlVolume)));
  EXPECT_EQ(service.stats().degraded, 2u);
}

TEST_F(StoreHandleTest, ServiceSeesAnInPlaceRewriteThatRestoresTheMtime) {
  const std::string dir = clone(dir_a(), "in_place");
  const std::string kpis = dir + "/" + feed_file_name("kpis");
  serve::QueryService service(dir, "digest");
  service.register_grouping("region", region());
  serve::Query dl;
  dl.kind = serve::QueryKind::kKpiGroupSeries;
  dl.metric = telemetry::KpiMetric::kDlVolume;
  dl.grouping = "region";
  serve::Query ul = dl;
  ul.metric = telemetry::KpiMetric::kUlVolume;
  ASSERT_EQ(service.run(dl).status, serve::QueryStatus::kOk);
  const StoreHandle handle{dir, kServedFeeds};

  // Same size, same inode, and the mtime put back the way cp -p, rsync -t
  // or touch -r would: only the ctime moves. The sleep lets the file
  // system's timestamp tick advance past the opens above.
  const auto mtime = std::filesystem::last_write_time(kpis);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::fstream file(kpis, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(64);
    const char byte = static_cast<char>(file.get() ^ 0x40);
    file.seekp(64);
    file.put(byte);
    ASSERT_TRUE(file.good());
  }
  std::filesystem::last_write_time(kpis, mtime);
  ASSERT_EQ(std::filesystem::last_write_time(kpis), mtime);

  EXPECT_TRUE(handle.changed_on_disk());
  EXPECT_EQ(service.run(ul).status, serve::QueryStatus::kDegraded);
}

}  // namespace
}  // namespace cellscope::store
