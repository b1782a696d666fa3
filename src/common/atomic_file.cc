#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cellscope {
namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// Durability for the rename itself: without flushing the directory a crash
// can roll back to the old entry. Best-effort — some filesystems refuse
// fsync on directories and the rename is still atomic for readers.
void sync_parent_dir(const std::string& path) {
  const int dir_fd = ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return;
  ::fsync(dir_fd);
  ::close(dir_fd);
}

}  // namespace

void write_file_atomic(const std::string& path, const void* data,
                       std::size_t size) {
  const std::string tmp = path + kTmpSuffix;
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) fail("atomic write: cannot create", tmp);

  const char* cursor = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ::ssize_t n = ::write(fd, cursor, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail("atomic write: short write to", tmp);
    }
    cursor += n;
    left -= static_cast<std::size_t>(n);
  }
  try {
    publish_file_atomic(fd, tmp, path);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  write_file_atomic(path, contents.data(), contents.size());
}

void publish_file_atomic(int fd, const std::string& tmp_path,
                         const std::string& final_path) {
  if (::fsync(fd) != 0) fail("atomic write: fsync failed for", tmp_path);
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0)
    fail("atomic write: rename failed for", final_path);
  sync_parent_dir(final_path);
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  out.clear();
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ::ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      if (n < 0) out.clear();
      return n == 0;
    }
    out.insert(out.end(), buf, buf + n);
  }
}

std::size_t remove_stale_tmp_files(const std::string& dir,
                                   const std::vector<std::string>& keep) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return 0;
  std::size_t removed = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= std::string_view{kTmpSuffix}.size() ||
        !name.ends_with(kTmpSuffix) ||
        std::find(keep.begin(), keep.end(), name) != keep.end())
      continue;
    if (fs::remove(entry.path(), ec)) ++removed;
  }
  return removed;
}

}  // namespace cellscope
