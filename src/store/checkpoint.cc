#include "store/checkpoint.h"

#include <csignal>
#include <cstdio>
#include <unistd.h>

#include "common/atomic_file.h"
#include "store/format.h"

namespace cellscope::store {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x54504b43;  // "CKPT"
constexpr std::uint32_t kCheckpointVersion = 1;

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, std::string config_digest)
    : path_(std::move(dir) + "/checkpoint.ckpt"),
      digest_(std::move(config_digest)) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path_, bytes)) return;
  // Fixed prelude: magic + version + digest length.
  if (bytes.size() < 12) return;
  const std::uint8_t* p = bytes.data();
  if (read_u32(p) != kCheckpointMagic) return;
  if (read_u32(p + 4) != kCheckpointVersion) return;
  const std::uint32_t digest_len = read_u32(p + 8);
  std::size_t off = 12;
  if (bytes.size() - off < digest_len) return;
  const std::string digest(reinterpret_cast<const char*>(p + off), digest_len);
  off += digest_len;
  if (bytes.size() - off < 8 + 8) return;
  const std::int64_t hwm = static_cast<std::int64_t>(read_u64(p + off));
  off += 8;
  const std::uint64_t payload_len = read_u64(p + off);
  off += 8;
  // Subtraction form: payload_len comes off the disk, and payload_len + 4
  // could wrap past 2^64 into a small value that passes.
  if (bytes.size() - off < 4 || bytes.size() - off - 4 < payload_len) return;
  const std::size_t crc_off = off + payload_len;
  if (crc32c(p, crc_off) != read_u32(p + crc_off)) return;
  // A record for a different scenario is valid but not ours: start fresh.
  if (digest != digest_) return;
  resume_day_ = static_cast<SimDay>(hwm);
  payload_.assign(p + off, p + crc_off);
}

std::span<const std::uint8_t> CheckpointManager::resume_payload() const {
  return {payload_.data(), payload_.size()};
}

SimDay CheckpointManager::resume_day() const { return resume_day_; }

void CheckpointManager::on_day_complete(SimDay day,
                                        const std::vector<std::uint8_t>& state) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(32 + digest_.size() + state.size());
  put_u32(bytes, kCheckpointMagic);
  put_u32(bytes, kCheckpointVersion);
  put_u32(bytes, static_cast<std::uint32_t>(digest_.size()));
  bytes.insert(bytes.end(), digest_.begin(), digest_.end());
  put_u64(bytes, static_cast<std::uint64_t>(static_cast<std::int64_t>(day)));
  put_u64(bytes, static_cast<std::uint64_t>(state.size()));
  bytes.insert(bytes.end(), state.begin(), state.end());
  put_u32(bytes, crc32c(bytes.data(), bytes.size()));
  write_file_atomic(path_, bytes.data(), bytes.size());

  if (kill_after_days_ > 0 && ++days_saved_ >= kill_after_days_) {
    // Crash injection: die the hard way, mid-run, with the checkpoint just
    // published — the exact scenario test_crash_resume and the CI
    // crash-resume job resume from.
    ::kill(::getpid(), SIGKILL);
  }
}

void CheckpointManager::clear() {
  std::remove(path_.c_str());
  resume_day_ = -1;
  payload_.clear();
}

}  // namespace cellscope::store
