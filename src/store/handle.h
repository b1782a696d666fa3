// StoreHandle: one opened, fully verified generation of a store directory.
//
// Opening a feed file maps it and checks its footer plus every shard's
// CRC32C (shard.h). A handle does that once, for a fixed set of feeds, and
// then only hands out the validated readers: any number of FeedScanners on
// any number of threads borrow them (shared_ptr<const FeedFileReader>), so
// a service answering many small queries pays for the verify once instead
// of per query. Everything in a handle is immutable after construction.
//
// A handle never notices on its own that the store changed. It records each
// feed file's identity (device, inode, size, mtime and ctime in ns) from a
// stat taken BEFORE the file is opened, and changed_on_disk() stats the
// paths again: a store republished by atomic rename (new inode) or
// rewritten in place (new size, mtime or ctime) shows as changed, and the
// owner opens a new handle. The ctime catches a same-size rewrite that puts
// the old mtime back (cp -p, rsync -t, touch -r): no caller can set ctime.
// Stat-before-open means a file replaced mid-open reads as changed on the
// next check — a wasted reopen, never a stale handle.
//
// The limit: timestamps move in the file system's clock ticks (often a few
// ms), so two in-place writes inside one tick, the second after the open,
// can still leave the identity unchanged and go unseen.
//
// Damage is reported exactly as a fresh open reports it: each reader keeps
// its status and quarantine log. intact() says whether the generation is
// worth keeping; an owner that keeps only intact handles re-verifies a
// damaged store on every use, so it degrades on every request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/shard.h"

namespace cellscope::store {

class StoreHandle {
 public:
  // Maps and validates dir/<feed>.csf for each of `feeds`. Never throws on
  // bad input: a missing or damaged file is a reader with that status.
  StoreHandle(const std::string& dir, const std::vector<std::string>& feeds);

  // The validated reader of `feed`, shared by every scan of this handle.
  // Throws std::invalid_argument for a feed the handle was not opened
  // with — a caller bug, not store damage.
  [[nodiscard]] const std::shared_ptr<const FeedFileReader>& reader(
      std::string_view feed) const;

  // Every feed opened kOk with zero quarantined shards.
  [[nodiscard]] bool intact() const;

  // Any feed file's identity differs from the one recorded at open
  // (including a file that appeared or vanished).
  [[nodiscard]] bool changed_on_disk() const;

 private:
  struct FileIdentity {
    bool exists = false;
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    std::int64_t ctime_ns = 0;
    bool operator==(const FileIdentity&) const = default;
  };
  struct Feed {
    std::string name;
    std::string path;
    FileIdentity identity;
    std::shared_ptr<const FeedFileReader> reader;
  };

  static FileIdentity identify(const std::string& path);

  std::vector<Feed> feeds_;
};

}  // namespace cellscope::store
