// Crash-safe file publication.
//
// Every durable artifact cellscope writes (CSF1 shards, store manifests,
// checkpoints, obs exports) follows the same discipline: write the full
// contents to `<path>.tmp`, fsync, rename over `<path>`, fsync the parent
// directory. A reader can then rely on a simple invariant — any file at its
// final name is complete — and a crashed writer leaves behind only `*.tmp`
// litter that the next run sweeps away. docs/RECOVERY.md describes the
// recovery contract built on top of this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cellscope {

// Appended to the final path to form the scratch name. Everything that
// writes through this module (or hand-rolls the same protocol, like the
// streaming shard writer) uses this suffix so the sweep finds it.
inline constexpr const char* kTmpSuffix = ".tmp";

// Writes `size` bytes to `path + kTmpSuffix`, fsyncs, renames onto `path`
// and fsyncs the parent directory. Throws std::runtime_error (with errno
// text) if any step fails; on failure the temp file is unlinked best-effort
// and `path` is untouched.
void write_file_atomic(const std::string& path, const void* data,
                       std::size_t size);
void write_file_atomic(const std::string& path, const std::string& contents);

// Flushes `fd` and renames `tmp_path` onto `final_path` (+ parent-dir
// fsync). The fd is NOT closed. Used by streaming writers that build the
// temp file incrementally. Throws std::runtime_error on failure.
void publish_file_atomic(int fd, const std::string& tmp_path,
                         const std::string& final_path);

// Reads the whole file at `path` into `out`, retrying EINTR (a signal
// mid-read must not make a valid file look absent). False, with `out`
// empty, when it cannot be opened or read.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out);

// Deletes every `*.tmp` file directly inside `dir` (non-recursive); these
// are by construction unpublished leftovers from a crashed writer. Files
// named in `keep` stay (a writer's resumable scratch files). Returns the
// number removed. A missing directory counts as empty.
std::size_t remove_stale_tmp_files(const std::string& dir,
                                   const std::vector<std::string>& keep = {});

}  // namespace cellscope
