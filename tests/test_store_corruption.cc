// Corruption robustness of the dataset layer: a damaged store must never
// crash, never throw, and — above all — never serve partial data as
// complete. Every mutation here (bit flip, truncation, deleted feed,
// missing manifest) must surface as a degraded or missing outcome with
// the losses accounted in the telemetry/quality ledger, while everything
// intact still loads.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "analysis/network_metrics.h"
#include "common/atomic_file.h"
#include "sim/simulator.h"
#include "store/checkpoint.h"
#include "store/dataset_io.h"
#include "store/feeds.h"
#include "store/format.h"
#include "store/scan.h"
#include "store/shard.h"
#include "support/scan_oracle.h"

namespace cellscope::store {
namespace {

sim::ScenarioConfig tiny_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 600;
  config.seed = 77;
  config.user_chunk = 128;
  config.worker_threads = 2;
  return config;
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good()) << path;
}

std::uint64_t store_quarantined(const sim::Dataset& ds) {
  for (const auto& feed : ds.quality.feeds())
    if (feed.name == "store") return feed.quarantined_records;
  return 0;
}

// One pristine store for the suite; each test clones and damages a copy.
// The base directory is keyed by PID: ctest isolates every test into its
// own process (each rebuilding the suite fixture), and concurrent
// processes sharing one path would race each other's remove_all.
class StoreCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_dir_ = new std::string(::testing::TempDir() +
                                "cellstore_corruption_base_" +
                                std::to_string(::getpid()));
    std::filesystem::remove_all(*base_dir_);
    live_ = new sim::Dataset(simulate_to_store(tiny_config(), *base_dir_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*base_dir_);
    delete live_;
    live_ = nullptr;
    delete base_dir_;
    base_dir_ = nullptr;
  }

  static const sim::Dataset& live() { return *live_; }

  static std::string clone(const std::string& name) {
    const std::string dir =
        ::testing::TempDir() + "cellstore_corruption_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::copy(*base_dir_, dir);
    return dir;
  }

 private:
  static std::string* base_dir_;
  static sim::Dataset* live_;
};
std::string* StoreCorruption::base_dir_ = nullptr;
sim::Dataset* StoreCorruption::live_ = nullptr;

TEST_F(StoreCorruption, PristineCloneLoadsComplete) {
  const ReadOutcome outcome = read_dataset(clone("pristine"), tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.shards_quarantined, 0u);
  EXPECT_EQ(store_quarantined(*outcome.dataset), 0u);
}

TEST_F(StoreCorruption, BitFlippedKpiFeedDegradesWithoutCrash) {
  const std::string dir = clone("bitflip");
  // Offset 64 sits inside the first KPI shard (header + column directory),
  // so the shard's CRC no longer matches.
  flip_byte(dir + "/" + feed_file_name("kpis"), 64);

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
  EXPECT_FALSE(outcome.complete());
  EXPECT_GE(outcome.shards_quarantined, 1u);
  EXPECT_FALSE(outcome.quarantine_log.empty());
  // The dataset is still served — degraded, with the damage on the ledger —
  // and the untouched feeds loaded in full.
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
  EXPECT_EQ(outcome.dataset->homes.size(), live().homes.size());
  EXPECT_LT(outcome.dataset->kpis.records().size(),
            live().kpis.records().size());
}

TEST_F(StoreCorruption, TruncatedKpiFeedDegradesWithoutCrash) {
  const std::string dir = clone("truncated");
  const std::string kpis = dir + "/" + feed_file_name("kpis");
  std::filesystem::resize_file(kpis, std::filesystem::file_size(kpis) / 2);

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
  EXPECT_FALSE(outcome.complete());
  EXPECT_GE(outcome.shards_quarantined, 1u);
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_EQ(outcome.dataset->kpis.records().size(), 0u);
  EXPECT_EQ(outcome.dataset->homes.size(), live().homes.size());
  EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
}

TEST_F(StoreCorruption, DeletedFeedFileDegradesWithoutCrash) {
  const std::string dir = clone("deleted");
  std::filesystem::remove(dir + "/" + feed_file_name("homes"));

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
  EXPECT_FALSE(outcome.complete());
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_EQ(outcome.dataset->homes.size(), 0u);
  // Every other feed is unaffected.
  EXPECT_EQ(outcome.dataset->kpis.records().size(),
            live().kpis.records().size());
  EXPECT_EQ(outcome.dataset->signaling.days().size(),
            live().signaling.days().size());
}

TEST_F(StoreCorruption, EveryFeedDamagedStillNeverCrashes) {
  const std::string dir = clone("scorched");
  for (const auto& feed : dataset_feeds()) {
    const std::string path = dir + "/" + feed_file_name(feed);
    const auto size = std::filesystem::file_size(path);
    if (size > 48) {
      flip_byte(path, size / 2);
    } else {
      std::filesystem::resize_file(path, size / 2);
    }
  }
  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kDegraded);
  EXPECT_FALSE(outcome.complete());
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
}

// ------------------------------------------------- torn-write matrix
//
// A crash can tear a write at any byte. The publish protocol (tmp + fsync
// + rename) means a torn PUBLISHED file can only exist if the protocol is
// violated or the disk lies — but the reader must survive it regardless.
// This matrix truncates the KPI feed at every structural boundary of the
// CSF1 layout (shard.cc): file header (8), shard header (+32), column
// directory entry (+16), footer entry (48 from the tail), the 16-byte tail
// itself, and one byte into/short of each. Every cut must read as degraded
// — quarantined on the ledger, other feeds intact — and never crash or
// serve the torn feed as complete.
TEST_F(StoreCorruption, TruncationAtEveryStructuralBoundaryDegrades) {
  const std::string pristine = clone("torn_pristine");
  const std::string kpis_name = feed_file_name("kpis");
  const auto size = std::filesystem::file_size(pristine + "/" + kpis_name);
  ASSERT_GT(size, 64u);
  const std::vector<std::uint64_t> cuts = {
      0,          // empty file
      1,          // inside the file magic
      8,          // exactly the file header: no shard, no tail
      8 + 31,     // inside the first shard header
      8 + 32,     // shard header complete, column directory missing
      8 + 32 + 16,  // one column-directory entry, payload missing
      size - 17,  // one byte short of the tail
      size - 16,  // tail missing entirely (footer still present)
      size - 48 - 16,  // inside the footer entries
      size - 8,   // tail torn mid-CRC
      size - 1,   // last byte lost
  };
  for (const std::uint64_t cut : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(size) + " bytes");
    const std::string dir = clone("torn_" + std::to_string(cut));
    std::filesystem::resize_file(dir + "/" + kpis_name, cut);
    const ReadOutcome outcome = read_dataset(dir, tiny_config());
    ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded)
        << outcome.error;
    EXPECT_FALSE(outcome.complete());
    EXPECT_GE(outcome.shards_quarantined, 1u);
    ASSERT_TRUE(outcome.dataset.has_value());
    // The torn feed never serves partial rows as complete...
    EXPECT_LT(outcome.dataset->kpis.records().size(),
              live().kpis.records().size());
    EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
    // ...and the untouched feeds still load in full.
    EXPECT_EQ(outcome.dataset->homes.size(), live().homes.size());
    EXPECT_EQ(outcome.dataset->signaling.days().size(),
              live().signaling.days().size());
  }
}

// An abandoned scratch file — a writer crashed before its rename — must be
// invisible to readers whatever its contents (empty, garbage, or a torn
// prefix of the real shard at any structural boundary), and the next
// writer's startup sweep removes it.
TEST_F(StoreCorruption, OrphanedTmpFilesAreIgnoredAndSwept) {
  const std::string dir = clone("orphan_tmp");
  const std::string kpis = dir + "/" + feed_file_name("kpis");
  std::vector<char> shard(std::filesystem::file_size(kpis));
  std::ifstream{kpis, std::ios::binary}.read(shard.data(),
                                             static_cast<std::streamoff>(
                                                 shard.size()));
  // A torn prefix of a real shard, a garbage manifest, and an empty file.
  std::ofstream{kpis + kTmpSuffix, std::ios::binary}.write(shard.data(), 40);
  std::ofstream{dir + "/" + std::string(kManifestFile) + kTmpSuffix}
      << "torn manifest\n";
  std::ofstream{dir + "/empty" + kTmpSuffix};

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.dataset->kpis.records().size(),
            live().kpis.records().size());

  EXPECT_EQ(remove_stale_tmp_files(dir), 3u);
  EXPECT_FALSE(std::filesystem::exists(kpis + kTmpSuffix));
  // The published files all survive the sweep.
  const ReadOutcome after = read_dataset(dir, tiny_config());
  EXPECT_EQ(after.status, ReadOutcome::Status::kOk);
}

// ------------------------------------------------- checkpoint records
//
// A damaged checkpoint must read as "no resumable state" — the run starts
// fresh — never as an error and never as someone else's state.
TEST_F(StoreCorruption, CheckpointSurvivesEveryCorruption) {
  const std::string dir =
      ::testing::TempDir() + "cellstore_corruption_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<std::uint8_t> state = {1, 2, 3, 4, 5, 6, 7, 8};
  {
    CheckpointManager writer{dir, "digest-a"};
    writer.on_day_complete(41, state);
  }
  const std::string path = dir + "/checkpoint.ckpt";
  ASSERT_TRUE(std::filesystem::exists(path));

  {  // Round-trip: same digest resumes.
    CheckpointManager m{dir, "digest-a"};
    ASSERT_FALSE(m.resume_payload().empty());
    EXPECT_EQ(m.resume_day(), 41);
    EXPECT_TRUE(std::equal(state.begin(), state.end(),
                           m.resume_payload().begin()));
  }
  {  // A different scenario's digest must not resume from it.
    CheckpointManager m{dir, "digest-b"};
    EXPECT_TRUE(m.resume_payload().empty());
  }
  // Truncation at every byte boundary reads as fresh, never throws.
  const auto size = std::filesystem::file_size(path);
  for (std::uint64_t cut = 0; cut < size; ++cut) {
    {
      CheckpointManager writer{dir, "digest-a"};
      writer.on_day_complete(41, state);
    }
    std::filesystem::resize_file(path, cut);
    CheckpointManager m{dir, "digest-a"};
    EXPECT_TRUE(m.resume_payload().empty()) << "cut " << cut;
  }
  // A flipped byte anywhere fails the CRC and reads as fresh.
  for (const std::uint64_t offset : {std::uint64_t{0}, size / 2, size - 1}) {
    {
      CheckpointManager writer{dir, "digest-a"};
      writer.on_day_complete(41, state);
    }
    flip_byte(path, offset);
    CheckpointManager m{dir, "digest-a"};
    EXPECT_TRUE(m.resume_payload().empty()) << "offset " << offset;
  }
  // Garbage reads as fresh; clear() removes the record.
  std::ofstream{path, std::ios::binary | std::ios::trunc}
      << "not a checkpoint";
  CheckpointManager m{dir, "digest-a"};
  EXPECT_TRUE(m.resume_payload().empty());
  m.on_day_complete(7, state);
  m.clear();
  EXPECT_FALSE(std::filesystem::exists(path));
  CheckpointManager fresh{dir, "digest-a"};
  EXPECT_TRUE(fresh.resume_payload().empty());
}

TEST_F(StoreCorruption, MissingManifestReportsMissing) {
  const std::string dir = clone("manifestless");
  std::filesystem::remove(dir + "/" + kManifestFile);
  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kMissing);
  EXPECT_FALSE(outcome.dataset.has_value());
}

TEST_F(StoreCorruption, GarbageManifestReportsMissing) {
  const std::string dir = clone("garbage_manifest");
  {
    std::ofstream out{dir + "/" + kManifestFile,
                      std::ios::binary | std::ios::trunc};
    out << "not a manifest\n";
  }
  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kMissing);
  EXPECT_FALSE(outcome.dataset.has_value());
}

// ------------------------------------------- crafted footers and headers
//
// Feeds whose damage every checksum vouches for: a field is rewritten to a
// value whose sum or product with another wraps past 2^64, then the CRCs
// over it are recomputed. Only the reader's bounds checks stand between
// such a file and an out-of-mapping read.

// Fixed offsets of the CSF1 layout (docs/STORAGE.md).
constexpr std::size_t kTailBytes = 16;
constexpr std::size_t kShardStart = 8;       // right after the file header
constexpr std::size_t kColumnDirStart = 32;  // within a shard

void put_u64_at(std::vector<std::uint8_t>& b, std::size_t at,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u32_at(std::vector<std::uint8_t>& b, std::size_t at,
                std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// One shard of two columns (varint, raw64), written by the real writer and
// returned as raw bytes.
std::vector<std::uint8_t> one_shard_feed(const std::string& path) {
  {
    FeedFileWriter writer{path, {Encoding::kVarint, Encoding::kRaw64}};
    for (int i = 0; i < 16; ++i) {
      writer.u64(0, static_cast<std::uint64_t>(i) * 300);
      writer.f64(1, i * 0.25);
      writer.end_row(i);
    }
    writer.close();
  }
  std::vector<std::uint8_t> bytes(std::filesystem::file_size(path));
  std::ifstream in{path, std::ios::binary};
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

std::size_t footer_body(const std::vector<std::uint8_t>& b) {
  const std::size_t tail = b.size() - kTailBytes;
  return tail - static_cast<std::size_t>(read_u64(b.data() + tail));
}

// Recomputes the footer CRC in the tail after an edit of the footer body.
void reseal_footer(std::vector<std::uint8_t>& b) {
  const std::size_t body = footer_body(b);
  const std::size_t tail = b.size() - kTailBytes;
  put_u32_at(b, tail + 8, crc32c(b.data() + body, tail - body));
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& b) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(CraftedFeed, ShardCountWrappingTheFooterSizeIsCorrupt) {
  const std::string path = ::testing::TempDir() + "crafted_count.csf";
  auto bytes = one_shard_feed(path);
  // 8 + (2^60 + 1) * 48 wraps to 8 + 48: the one-shard footer's length.
  put_u64_at(bytes, footer_body(bytes), (std::uint64_t{1} << 60) + 1);
  reseal_footer(bytes);
  write_bytes(path, bytes);

  FeedFileReader reader{path};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kCorrupt);
  EXPECT_TRUE(reader.shards().empty());
  std::filesystem::remove(path);
}

TEST(CraftedFeed, ShardOffsetWrappingPastTheDataEndIsQuarantined) {
  const std::string path = ::testing::TempDir() + "crafted_offset.csf";
  auto bytes = one_shard_feed(path);
  const std::size_t entry = footer_body(bytes) + 8;
  const std::uint64_t length = read_u64(bytes.data() + entry + 8);
  // offset + length wraps to 8, which an added bound would let through.
  put_u64_at(bytes, entry, 0 - length + kShardStart);
  reseal_footer(bytes);
  write_bytes(path, bytes);

  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 1u);
  EXPECT_TRUE(reader.shards().empty());
  std::filesystem::remove(path);
}

TEST(CraftedFeed, ColumnLengthWrappingThePayloadIsQuarantined) {
  const std::string path = ::testing::TempDir() + "crafted_column.csf";
  auto bytes = one_shard_feed(path);
  // Column 0 claims 2^64 - 1 bytes and column 1 one byte more than both
  // really hold, so the running payload offset wraps back and lands
  // exactly on the shard's end; the CRCs are recomputed over the edit.
  const std::size_t dir0 = kShardStart + kColumnDirStart;
  const std::size_t dir1 = dir0 + 16;
  const std::uint64_t b0 = read_u64(bytes.data() + dir0 + 8);
  const std::uint64_t b1 = read_u64(bytes.data() + dir1 + 8);
  put_u64_at(bytes, dir0 + 8, ~std::uint64_t{0});
  put_u64_at(bytes, dir1 + 8, b0 + b1 + 1);
  const std::size_t entry = footer_body(bytes) + 8;
  const std::uint64_t length = read_u64(bytes.data() + entry + 8);
  put_u32_at(bytes, entry + 40,
             crc32c(bytes.data() + kShardStart,
                    static_cast<std::size_t>(length)));
  reseal_footer(bytes);
  write_bytes(path, bytes);

  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 1u);
  EXPECT_TRUE(reader.shards().empty());
  std::filesystem::remove(path);
}

// ------------------------------------------------- crafted dataset feeds
//
// Feeds rewritten through the real writer, so every CRC is valid and only
// read_dataset's own checks see the damage.

// One stored row, every column kept whole: integers (either integer
// encoding), doubles and kBytes payloads.
struct Cell {
  std::int64_t i = 0;
  double f = 0.0;
  std::string s;
};
using Row = std::vector<Cell>;

// Reads every row of `feed` in `dir`, lets `edit` change them, and writes
// them back through the real writer at the default shard size.
void rewrite_feed(const std::string& dir, const std::string& feed,
                  const std::function<void(std::vector<Row>&)>& edit) {
  const FeedSchema& schema = feed_schema(feed);
  std::vector<Row> rows;
  {
    FeedScanner scanner = FeedScanner::open(dir, schema, ScanOptions{});
    ASSERT_TRUE(scanner.ok()) << scanner.error();
    ScanBatch batch;
    while (scanner.next(batch)) {
      for (std::size_t r = 0; r < batch.rows(); ++r) {
        Row& row = rows.emplace_back(schema.size());
        for (std::size_t c = 0; c < schema.size(); ++c) {
          const ScanColumn& column = batch.column(c);
          if (!column.i64.empty()) row[c].i = column.i64[r];
          if (!column.f64.empty()) row[c].f = column.f64[r];
          if (!column.bytes.empty()) row[c].s = column.bytes[r];
        }
      }
    }
  }
  edit(rows);
  FeedFileWriter writer{dir + "/" + feed_file_name(feed), schema.encodings()};
  for (const Row& row : rows) {
    for (std::size_t c = 0; c < schema.size(); ++c) {
      switch (schema.columns()[c].encoding) {
        case Encoding::kRaw64: writer.f64(c, row[c].f); break;
        case Encoding::kVarint:
          writer.u64(c, static_cast<std::uint64_t>(row[c].i));
          break;
        case Encoding::kDeltaZigzagVarint: writer.i64(c, row[c].i); break;
        case Encoding::kBytes:
          writer.u64(c, row[c].s.size());
          writer.bytes(c, row[c].s.data(), row[c].s.size());
          break;
      }
    }
    writer.end_row(schema.day_column() == FeedSchema::npos
                       ? 0
                       : row[schema.day_column()].i);
  }
  writer.close();
}

// The London matrix is sized from stored scalars. A range swapped (first >
// last) or inflated past the run, or a home county that does not exist,
// must degrade the read, not throw length_error or ask for gigabytes.
TEST_F(StoreCorruption, CraftedMatrixRangeDegradesWithoutThrowing) {
  ASSERT_NE(live().london_matrix, nullptr);
  const auto first =
      static_cast<std::int64_t>(live().london_matrix->first_day());
  const auto last =
      static_cast<std::int64_t>(live().london_matrix->last_day());
  ASSERT_LT(first, last);
  const std::int64_t max_day = std::numeric_limits<SimDay>::max();
  using Edits = std::vector<std::pair<ScalarId, std::int64_t>>;
  const std::vector<std::pair<std::string, Edits>> cases = {
      {"swapped", {{kMatrixFirstDay, last}, {kMatrixLastDay, first}}},
      {"inflated", {{kMatrixLastDay, max_day}}},
      {"county", {{kLondonHomeCounty, 1'000'000}}},
  };
  for (const auto& [name, edits] : cases) {
    SCOPED_TRACE(name);
    const std::string dir = clone("matrix_" + name);
    rewrite_feed(dir, "scalars", [&](std::vector<Row>& rows) {
      for (Row& row : rows)
        for (const auto& [id, value] : edits)
          if (row[0].i == static_cast<std::int64_t>(id)) row[2].i = value;
    });
    const ReadOutcome outcome = read_dataset(dir, tiny_config());
    EXPECT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
    EXPECT_FALSE(outcome.error.empty());
    ASSERT_TRUE(outcome.dataset.has_value());
    EXPECT_EQ(outcome.dataset->london_matrix, nullptr);
    EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
    // Every other feed still loads in full.
    EXPECT_EQ(outcome.dataset->kpis.records().size(),
              live().kpis.records().size());
    EXPECT_EQ(outcome.dataset->homes.size(), live().homes.size());
  }
}

// CRC-valid rows read_dataset must still refuse: a negative user or LAD,
// and a quality-feed name over 4096 bytes. Each feed here is one shard,
// so the whole feed is quarantined and the read degrades.
TEST_F(StoreCorruption, OutOfRangeRowsQuarantineTheirShard) {
  struct Case {
    std::string feed;
    std::function<void(std::vector<Row>&)> edit;
  };
  const std::vector<Case> cases = {
      {"homes", [](std::vector<Row>& rows) { rows.at(3)[0].i = -1; }},
      {"validation", [](std::vector<Row>& rows) { rows.at(1)[0].i = -7; }},
      {"quality",
       [](std::vector<Row>& rows) {
         Row row(feed_schema("quality").size());
         row[0].i = kFeedTotalsRow;
         row[1].s.assign(4097, 'q');
         rows.push_back(row);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.feed);
    const std::string dir = clone("row_range_" + c.feed);
    rewrite_feed(dir, c.feed, c.edit);
    const ReadOutcome outcome = read_dataset(dir, tiny_config());
    EXPECT_EQ(outcome.status, ReadOutcome::Status::kDegraded);
    EXPECT_EQ(outcome.shards_quarantined, 1u);
    ASSERT_TRUE(outcome.dataset.has_value());
    EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
    EXPECT_EQ(outcome.dataset->kpis.records().size(),
              live().kpis.records().size());
  }
  // The same rewrite with no edit reads back complete.
  const std::string dir = clone("row_range_none");
  rewrite_feed(dir, "homes", [](std::vector<Row>&) {});
  EXPECT_EQ(read_dataset(dir, tiny_config()).status,
            ReadOutcome::Status::kOk);
}

// A CRC-valid KPI shard whose rows break what the kpis schema promises: a
// negative cell, a day past SimDay, a day outside the range end_row() put
// in the shard footer, a cell id of 2^32 or more (which a uint32 narrowing
// would read as a valid cell), a day going back inside the shard, and a
// shard whose days all precede its predecessor's. scan_kpis and
// read_dataset both reject that shard whole and keep every other row,
// exactly the rows the cursor reference decode returns for the other
// shards, and the KPI-group adapter serves nothing, with or without an
// all-group (a lying day once wrote past the series' end there).
TEST_F(StoreCorruption, OutOfRangeKpiRowQuarantinesItsShardEverywhere) {
  const auto& records = live().kpis.records();
  constexpr std::size_t kRowsPerShard = 1024;
  ASSERT_GT(records.size(), 3 * kRowsPerShard);
  const std::size_t bad = kRowsPerShard + 17;  // inside the second shard
  const auto in_bad_shard = [&](std::size_t i) {
    return i / kRowsPerShard == bad / kRowsPerShard;
  };
  const std::int64_t shard_first_day = records[kRowsPerShard].day;
  // Edits row i's stored day and cell, and the day end_row() tags it with.
  using Edit = std::function<void(std::size_t i, std::int64_t& day,
                                  std::int64_t& cell, std::int64_t& tag)>;
  const std::vector<std::pair<std::string, Edit>> cases = {
      {"negative cell",
       [&](std::size_t i, std::int64_t&, std::int64_t& cell, std::int64_t&) {
         if (i == bad) cell = -1;
       }},
      {"day past SimDay",
       [&](std::size_t i, std::int64_t& day, std::int64_t&,
           std::int64_t& tag) {
         if (i == bad)
           day = tag = std::int64_t{std::numeric_limits<SimDay>::max()} + 1;
       }},
      {"day outside its end_row day",
       [&](std::size_t i, std::int64_t& day, std::int64_t&, std::int64_t&) {
         if (i == bad) day = records.back().day + 30;
       }},
      {"cell of 2^32 or more",
       [&](std::size_t i, std::int64_t&, std::int64_t& cell, std::int64_t&) {
         if (i == bad) cell += std::int64_t{1} << 32;
       }},
      {"day going back",
       [&](std::size_t i, std::int64_t& day, std::int64_t&,
           std::int64_t& tag) {
         if (i == bad) day = tag = shard_first_day - 1;
       }},
      {"shard before its predecessor",
       [&](std::size_t i, std::int64_t& day, std::int64_t&,
           std::int64_t& tag) {
         if (in_bad_shard(i)) day = tag = records.front().day - 1;
       }},
  };
  const auto write_kpis = [&](const std::string& path, const Edit& edit) {
    FeedFileWriter writer{path, feed_schema("kpis").encodings(),
                          kRowsPerShard};
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      std::int64_t day = r.day;
      std::int64_t cell = r.cell.value();
      std::int64_t tag = r.day;
      edit(i, day, cell, tag);
      writer.i64(0, day);
      writer.i64(1, cell);
      for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
        const auto metric = static_cast<telemetry::KpiMetric>(m);
        writer.f64(kpi_metric_column(metric), telemetry::kpi_value(r, metric));
      }
      writer.end_row(tag);
    }
    writer.close();
  };
  const auto by_region =
      analysis::group_by_region(*live().geography, *live().topology);
  const auto by_cluster =
      analysis::group_by_cluster(*live().geography, *live().topology);
  {
    // The rewrite itself, undamaged, serves.
    const std::string dir = clone("kpi_rewritten");
    write_kpis(dir + "/" + feed_file_name("kpis"),
               [](std::size_t, std::int64_t&, std::int64_t&, std::int64_t&) {});
    EXPECT_TRUE(scan_kpi_group_series(dir, by_region,
                                      telemetry::KpiMetric::kDlVolume));
    EXPECT_TRUE(scan_kpi_group_series(dir, by_cluster,
                                      telemetry::KpiMetric::kDlVolume));
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [name, edit] = cases[c];
    SCOPED_TRACE(name);
    const std::string dir = clone("kpi_row_" + std::to_string(c));
    const std::string path = dir + "/" + feed_file_name("kpis");
    write_kpis(path, edit);

    EXPECT_FALSE(scan_kpi_group_series(dir, by_region,
                                       telemetry::KpiMetric::kDlVolume));
    EXPECT_FALSE(scan_kpi_group_series(dir, by_cluster,
                                       telemetry::KpiMetric::kDlVolume));

    // The reference decodes every shard; drop the damaged one by hand.
    const auto reference = testsupport::reference_decode_kpis(path);
    ASSERT_TRUE(reference.readable);
    EXPECT_EQ(reference.shards_quarantined, 0u);
    ASSERT_EQ(reference.records.size(), records.size());
    std::vector<telemetry::CellDayRecord> expected;
    for (std::size_t i = 0; i < reference.records.size(); ++i)
      if (!in_bad_shard(i)) expected.push_back(reference.records[i]);
    const auto expected_rows =
        testsupport::kpi_oracle_slice(expected, ScanOptions{}).rows;

    std::vector<telemetry::CellDayRecord> scanned;
    const ScanStats stats = scan_kpis(
        dir, [&](const telemetry::CellDayRecord& r) { scanned.push_back(r); });
    EXPECT_EQ(stats.shards_quarantined, reference.shards_quarantined + 1);
    EXPECT_EQ(stats.rows, expected.size());
    EXPECT_EQ(testsupport::kpi_oracle_slice(scanned, ScanOptions{}).rows,
              expected_rows);

    const ReadOutcome outcome = read_dataset(dir, tiny_config());
    EXPECT_EQ(outcome.status, ReadOutcome::Status::kDegraded);
    EXPECT_EQ(outcome.shards_quarantined, reference.shards_quarantined + 1);
    ASSERT_TRUE(outcome.dataset.has_value());
    EXPECT_EQ(testsupport::kpi_oracle_slice(outcome.dataset->kpis.records(),
                                            ScanOptions{})
                  .rows,
              expected_rows);
  }
}

// ------------------------------------------------- crafted checkpoints
//
// A checkpoint record claiming a payload of 2^64 - 1 bytes: the length
// check must not wrap. Added as `payload_len + 4` it wraps to 3, the CRC
// would be read from the last byte of the length field plus three more,
// and the payload range would run backwards. The high-water mark is
// varied until the CRC over everything but that last byte ends in 0xFF,
// then its top three bytes are appended, so the wrapped reading checks
// out; the loader must still read it as no resumable state.
TEST(CraftedCheckpoint, PayloadLengthWrappingTheRecordReadsAsFresh) {
  const std::string dir = ::testing::TempDir() + "crafted_checkpoint";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string digest = "digest-a";
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t hwm = 0;; ++hwm) {
    bytes.clear();
    put_u32(bytes, 0x54504b43);  // "CKPT"
    put_u32(bytes, 1);
    put_u32(bytes, static_cast<std::uint32_t>(digest.size()));
    bytes.insert(bytes.end(), digest.begin(), digest.end());
    put_u64(bytes, hwm);
    put_u64(bytes, ~std::uint64_t{0});
    const std::uint32_t crc = crc32c(bytes.data(), bytes.size() - 1);
    if ((crc & 0xff) != 0xff) continue;
    for (int i = 1; i < 4; ++i)
      bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    break;
  }
  write_bytes(dir + "/checkpoint.ckpt", bytes);

  CheckpointManager m{dir, digest};
  EXPECT_TRUE(m.resume_payload().empty());
  EXPECT_EQ(m.resume_day(), -1);
}

}  // namespace
}  // namespace cellscope::store
