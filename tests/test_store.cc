// Unit tests for the cellstore physical layer: format primitives (varint,
// zigzag, CRC32C) and the shard writer/reader round trip, including the
// per-shard quarantine behaviour the dataset layer builds on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "store/format.h"
#include "store/shard.h"

namespace cellscope::store {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cellstore_" + name;
  std::filesystem::remove(path);
  return path;
}

TEST(Varint, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16'383,
                                  16'384,
                                  0xDEADBEEF,
                                  std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> buf;
  for (const auto v : values) put_varint(buf, v);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  for (const auto v : values) {
    std::uint64_t decoded = 0;
    ASSERT_TRUE(get_varint(p, end, decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_EQ(p, end);
}

TEST(Varint, DecodeFailsOnTruncation) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1'000'000);
  ASSERT_GT(buf.size(), 1u);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size() - 1;  // clip last byte
  std::uint64_t decoded = 0;
  EXPECT_FALSE(get_varint(p, end, decoded));
}

TEST(Zigzag, RoundTripsSignedRange) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -2,
                                 63,
                                 -64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const auto v : values) EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  // Small magnitudes map to small codes — the property the day columns
  // rely on for ~1 byte/row.
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Crc32c, MatchesCheckValueAndChains) {
  // The standard CRC-32C check value over ASCII "123456789".
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32c(check, sizeof check), 0xE3069283u);
  // Seeding with a prior CRC continues the same stream.
  const std::uint32_t first = crc32c(check, 4);
  EXPECT_EQ(crc32c(check + 4, sizeof check - 4, first),
            crc32c(check, sizeof check));
}

TEST(Crc32c, MatchesRfc3720Vectors) {
  // RFC 3720 appendix B.4, on the selected kernel and the portable one.
  std::uint8_t zeros[32] = {};
  std::uint8_t ones[32];
  std::uint8_t up[32];
  std::uint8_t down[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = 0xFF;
    up[i] = static_cast<std::uint8_t>(i);
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  for (const auto kernel : {&crc32c, &crc32c_portable}) {
    EXPECT_EQ(kernel(zeros, 32, 0), 0x8A9136AAu);
    EXPECT_EQ(kernel(ones, 32, 0), 0x62A8AB43u);
    EXPECT_EQ(kernel(up, 32, 0), 0x46DD794Eu);
    EXPECT_EQ(kernel(down, 32, 0), 0x113FDB5Cu);
  }
}

TEST(Crc32c, PicksTheHardwareKernelWhenTheCpuHasSse42) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(crc32c_is_hardware(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(crc32c_is_hardware());
#endif
}

TEST(Crc32c, SelectedKernelMatchesPortableOnEveryLengthAndAlignment) {
  // On an SSE4.2 machine crc32c is the hardware kernel, so this is the
  // differential test of the two paths; elsewhere both sides are the
  // portable kernel and only the seed chaining is tested. The hardware
  // kernel runs three streams over 8 KiB lanes, then over 256 B lanes, then
  // one stream, and recombines lanes with zeros operators: besides every
  // length up to 1100, the lengths straddle each block (3 * 256 and
  // 3 * 8192, +-8), take two long blocks plus a short block plus a tail,
  // and fill a whole shard-sized buffer.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  for (const std::size_t block : {std::size_t{3 * 256}, std::size_t{3 * 8192}})
    for (std::size_t n = block - 8; n <= block + 8; ++n) lengths.push_back(n);
  lengths.push_back(2 * 3 * 8192 + 3 * 256 + 7);
  lengths.push_back(600'000);

  std::mt19937_64 rng{20200405};
  std::vector<std::uint8_t> buffer(lengths.back() + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (const std::size_t n : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* data = buffer.data() + offset;
      const std::uint32_t want = crc32c_portable(data, n);
      ASSERT_EQ(crc32c(data, n), want) << "offset " << offset << " n " << n;
      // Seed chaining at a random split continues the same stream, within
      // each kernel and from either kernel into the other.
      const std::size_t split = rng() % (n + 1);
      const std::uint8_t* rest = data + split;
      const std::size_t left = n - split;
      const std::uint32_t head = crc32c(data, split);
      const std::uint32_t portable_head = crc32c_portable(data, split);
      ASSERT_EQ(crc32c(rest, left, head), want)
          << "offset " << offset << " n " << n << " split " << split;
      ASSERT_EQ(crc32c_portable(rest, left, portable_head), want)
          << "offset " << offset << " n " << n << " split " << split;
      ASSERT_EQ(crc32c(rest, left, portable_head), want)
          << "offset " << offset << " n " << n << " split " << split;
      ASSERT_EQ(crc32c_portable(rest, left, head), want)
          << "offset " << offset << " n " << n << " split " << split;
    }
  }
}

TEST(ShardFile, RoundTripsMultipleShardsAndColumns) {
  const std::string path = temp_path("roundtrip.csf");
  const std::int64_t days[] = {-3, -3, 0, 5, 5, 5, 6, 9, 9, 10};
  const std::uint64_t counts[] = {0, 1, 127, 128, 300, 7, 0, 42, 9000, 1};
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -123.456,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           -1e300,
                           3.141592653589793,
                           1e-9,
                           2.2250738585072014e-308};
  {
    FeedFileWriter writer{path,
                          {Encoding::kDeltaZigzagVarint, Encoding::kVarint,
                           Encoding::kRaw64},
                          /*max_rows_per_shard=*/4};
    for (int i = 0; i < 10; ++i) {
      writer.i64(0, days[i]);
      writer.u64(1, counts[i]);
      writer.f64(2, values[i]);
      writer.end_row(days[i]);
    }
    EXPECT_EQ(writer.rows_written(), 10u);
    const auto size = writer.close();
    EXPECT_EQ(size, std::filesystem::file_size(path));
  }

  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 0u);
  EXPECT_EQ(reader.total_rows(), 10u);
  ASSERT_EQ(reader.shards().size(), 3u);  // 4 + 4 + 2 rows

  int row = 0;
  for (const auto& shard : reader.shards()) {
    ASSERT_EQ(shard.columns.size(), 3u);
    ColumnCursor day_cursor{shard.columns[0]};
    ColumnCursor count_cursor{shard.columns[1]};
    ColumnCursor value_cursor{shard.columns[2]};
    std::int64_t shard_min = std::numeric_limits<std::int64_t>::max();
    std::int64_t shard_max = std::numeric_limits<std::int64_t>::min();
    for (std::uint64_t i = 0; i < shard.rows; ++i, ++row) {
      std::int64_t day = 0;
      std::uint64_t count = 0;
      double value = 0.0;
      ASSERT_TRUE(day_cursor.next_i64(day));
      ASSERT_TRUE(count_cursor.next_u64(count));
      ASSERT_TRUE(value_cursor.next_f64(value));
      EXPECT_EQ(day, days[row]);
      EXPECT_EQ(count, counts[row]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                std::bit_cast<std::uint64_t>(values[row]));
      shard_min = std::min(shard_min, day);
      shard_max = std::max(shard_max, day);
    }
    EXPECT_EQ(shard.min_day, shard_min);
    EXPECT_EQ(shard.max_day, shard_max);
    // The cursor is exhausted exactly at the payload end.
    std::int64_t extra = 0;
    EXPECT_FALSE(day_cursor.next_i64(extra));
  }
  EXPECT_EQ(row, 10);
}

TEST(ShardFile, RoundTripsLengthFramedBlobs) {
  const std::string path = temp_path("blobs.csf");
  const std::string names[] = {"", "kpi-import", "a much longer feed name"};
  {
    FeedFileWriter writer{path, {Encoding::kBytes}};
    for (const auto& name : names) {
      writer.u64(0, name.size());  // varint length frame
      writer.bytes(0, name.data(), name.size());
      writer.end_row(0);
    }
    writer.close();
  }
  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  ASSERT_EQ(reader.shards().size(), 1u);
  ColumnCursor cursor{reader.shards()[0].columns[0]};
  for (const auto& name : names) {
    std::uint64_t len = 0;
    ASSERT_TRUE(cursor.next_u64(len));
    ASSERT_EQ(len, name.size());
    const std::uint8_t* data = nullptr;
    ASSERT_TRUE(cursor.next_bytes(static_cast<std::size_t>(len), data));
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(data), len), name);
  }
}

// sync() makes a stream resumable: recover() hands back any row prefix
// as verified shards, the resume constructor continues after the whole
// shards among them, and the finished file is byte-identical to one
// written in a single pass — whether the prefix ends inside a flushed
// shard, on a shard boundary, or inside the open shard.
TEST(ShardFile, SyncedPrefixRecoversAndResumesByteIdentical) {
  const std::vector<Encoding> schema = {Encoding::kDeltaZigzagVarint,
                                        Encoding::kRaw64};
  constexpr std::size_t kRowsPerShard = 4;
  constexpr int kRows = 11;
  const auto put_row = [](FeedFileWriter& w, int i) {
    w.i64(0, i / 3);
    w.f64(1, i * 0.5);
    w.end_row(i / 3);
  };
  const auto slurp = [](const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return std::vector<char>{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  };
  const std::string ref = temp_path("sync_ref.csf");
  {
    FeedFileWriter writer{ref, schema, kRowsPerShard};
    for (int i = 0; i < kRows; ++i) put_row(writer, i);
    writer.close();
  }

  for (std::uint64_t prefix = 0; prefix <= 10; ++prefix) {
    SCOPED_TRACE("prefix " + std::to_string(prefix));
    const std::string path = temp_path("sync.csf");
    {
      // Abandoned after a sync at row 10: a crash past the checkpoint.
      FeedFileWriter writer{path, schema, kRowsPerShard};
      for (int i = 0; i < 10; ++i) put_row(writer, i);
      writer.sync();
    }
    ASSERT_TRUE(std::filesystem::exists(path + kTmpSuffix));
    const auto pending = FeedFileWriter::recover(path, prefix);
    ASSERT_TRUE(pending.has_value());
    std::uint64_t covered = 0;
    for (const auto& shard : pending->shards) covered += shard.rows;
    EXPECT_GE(covered, prefix);
    std::size_t whole = 0;
    std::uint64_t kept = 0;
    while (whole < pending->index.size() &&
           kept + pending->index[whole].rows <= prefix)
      kept += pending->index[whole++].rows;
    {
      FeedFileWriter writer{
          path, schema,
          std::span<const ShardIndexEntry>{pending->index.data(), whole},
          kRowsPerShard};
      EXPECT_EQ(writer.rows_written(), kept);
      for (int i = static_cast<int>(kept); i < static_cast<int>(prefix); ++i)
        put_row(writer, i);
      writer.sync();
      for (int i = static_cast<int>(prefix); i < kRows; ++i)
        put_row(writer, i);
      writer.close();
    }
    EXPECT_EQ(slurp(path), slurp(ref));
    EXPECT_FALSE(std::filesystem::exists(path + kOpenRecordSuffix));
  }
  // More rows than were ever synced is no prefix at all.
  {
    const std::string path = temp_path("sync_short.csf");
    {
      FeedFileWriter writer{path, schema, kRowsPerShard};
      for (int i = 0; i < 5; ++i) put_row(writer, i);
      writer.sync();
    }
    EXPECT_FALSE(FeedFileWriter::recover(path, 6).has_value());
    EXPECT_TRUE(FeedFileWriter::recover(path, 5).has_value());
  }
}

// A writer never synced still drops its scratch file when abandoned.
TEST(ShardFile, UnsyncedWriterLeavesNoScratchFile) {
  const std::string path = temp_path("unsynced.csf");
  {
    FeedFileWriter writer{path, {Encoding::kVarint}};
    writer.u64(0, 1);
    writer.end_row(0);
  }
  EXPECT_FALSE(std::filesystem::exists(path + kTmpSuffix));
  EXPECT_FALSE(FeedFileWriter::recover(path, 0).has_value());
}

TEST(ShardFile, EmptyFeedIsValidWithZeroShards) {
  const std::string path = temp_path("empty.csf");
  {
    FeedFileWriter writer{path, {Encoding::kVarint}};
    writer.close();
  }
  FeedFileReader reader{path};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.shards().size(), 0u);
  EXPECT_EQ(reader.total_rows(), 0u);
}

TEST(ShardFile, MissingFileReportsMissing) {
  FeedFileReader reader{temp_path("does_not_exist.csf")};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kMissing);
}

TEST(ShardFile, GarbageFileReportsCorrupt) {
  const std::string path = temp_path("garbage.csf");
  {
    std::ofstream out{path, std::ios::binary};
    out << "this is not a cellstore feed file at all";
  }
  FeedFileReader reader{path};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kCorrupt);
  EXPECT_FALSE(reader.error().empty());
}

TEST(ShardFile, BitFlipQuarantinesOnlyTheDamagedShard) {
  const std::string path = temp_path("bitflip.csf");
  constexpr int kRows = 12;  // 3 shards of 4
  {
    FeedFileWriter writer{path, {Encoding::kVarint}, 4};
    for (int i = 0; i < kRows; ++i) {
      writer.u64(0, static_cast<std::uint64_t>(i) * 1000);
      writer.end_row(i);
    }
    writer.close();
  }
  // Flip one byte in the middle of the shard region: [8, size - footer)
  // where the footer is 8 (count) + 3 * 48 (entries) + 16 (tail) bytes.
  const auto size = std::filesystem::file_size(path);
  const std::uint64_t footer = 8 + 3 * 48 + 16;
  ASSERT_GT(size, footer + 8);
  const std::uint64_t target = 8 + (size - footer - 8) / 2;
  {
    std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
    file.seekg(static_cast<std::streamoff>(target));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(target));
    file.write(&byte, 1);
  }

  FeedFileReader reader{path};
  ASSERT_EQ(reader.status(), FeedFileReader::Status::kOk) << reader.error();
  EXPECT_EQ(reader.quarantined_shards(), 1u);
  ASSERT_EQ(reader.quarantine_log().size(), 1u);
  EXPECT_EQ(reader.shards().size(), 2u);
  EXPECT_EQ(reader.total_rows(), 8u);
  // The surviving shards still decode to exactly what was written.
  for (const auto& shard : reader.shards()) {
    ColumnCursor cursor{shard.columns[0]};
    for (std::uint64_t i = 0; i < shard.rows; ++i) {
      std::uint64_t value = 0;
      ASSERT_TRUE(cursor.next_u64(value));
      EXPECT_EQ(value % 1000, 0u);
      EXPECT_EQ(value / 1000, static_cast<std::uint64_t>(shard.min_day) + i);
    }
  }
}

TEST(ShardFile, TruncatedFileReportsCorruptNotCrash) {
  const std::string path = temp_path("truncated.csf");
  {
    FeedFileWriter writer{path, {Encoding::kRaw64}};
    for (int i = 0; i < 100; ++i) {
      writer.f64(0, i * 0.5);
      writer.end_row(i);
    }
    writer.close();
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  FeedFileReader reader{path};
  EXPECT_EQ(reader.status(), FeedFileReader::Status::kCorrupt);
  EXPECT_EQ(reader.shards().size(), 0u);
}

}  // namespace
}  // namespace cellscope::store
