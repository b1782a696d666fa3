// Durable, digest-keyed checkpoint records: the store side of
// checkpoint/resume (sim/checkpoint.h has the simulator side and the
// bitwise resume contract; docs/RECOVERY.md has the operator story).
//
// One file, `checkpoint.ckpt`, in the store directory, rewritten whole
// after every completed day through the same tmp + fsync + rename
// discipline as the feed shards (common/atomic_file.h) — a crash at any
// instant leaves either the previous day's record or the new one, never a
// torn mix. On-disk layout (integers little-endian):
//
//   u32  magic "CKPT"
//   u32  version
//   u32  digest length, then the scenario config digest bytes
//   i64  high-water mark (last fully completed day)
//   u64  payload length, then the opaque simulator blob
//   u32  CRC32C over everything above
//
// The blob is O(state): it counts the committed KPI rows but does not hold
// them. Those are durable in the store's own KPI feed (DatasetWriter keeps
// a CRC-checked prefix of it, store/shard.h), so a day's record costs the
// same on day 90 as on day 30.
//
// The digest keys the record to the scenario: a checkpoint written under a
// different config (or a corrupt/truncated file) is ignored and the run
// starts fresh — resuming someone else's state would be worse than
// restarting. clear() removes the file once the run publishes its final
// manifest, so a completed store carries no checkpoint.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/checkpoint.h"

namespace cellscope::store {

class CheckpointManager final : public sim::CheckpointSink {
 public:
  // Loads any resumable state from `dir`/checkpoint.ckpt whose digest
  // matches `config_digest`. Mismatched, corrupt, or absent records leave
  // the manager empty (fresh run); they are never an error.
  CheckpointManager(std::string dir, std::string config_digest);

  [[nodiscard]] std::span<const std::uint8_t> resume_payload() const override;
  [[nodiscard]] SimDay resume_day() const override;
  void on_day_complete(SimDay day,
                      const std::vector<std::uint8_t>& state) override;

  // Removes the checkpoint file; call after the final manifest publishes.
  void clear();

  // Crash-injection hook (CELLSCOPE_CRASH_AT_DAY, threaded through
  // StoreRunOptions): after the n-th successful on_day_complete() save the
  // process SIGKILLs itself — no destructors, no atexit, exactly the crash
  // the resume contract is tested against. 0 disables.
  void set_kill_after_days(int n) { kill_after_days_ = n; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string digest_;
  SimDay resume_day_ = -1;
  std::vector<std::uint8_t> payload_;
  int kill_after_days_ = 0;
  int days_saved_ = 0;
};

}  // namespace cellscope::store
