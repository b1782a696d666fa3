#include "store/handle.h"

#include <sys/stat.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

namespace cellscope::store {

StoreHandle::StoreHandle(const std::string& dir,
                         const std::vector<std::string>& feeds) {
  feeds_.reserve(feeds.size());
  for (const auto& name : feeds) {
    Feed feed;
    feed.name = name;
    feed.path = dir + "/" + feed_file_name(name);
    feed.identity = identify(feed.path);  // before the open; see header
    feed.reader = std::make_shared<const FeedFileReader>(feed.path);
    feeds_.push_back(std::move(feed));
  }
}

const std::shared_ptr<const FeedFileReader>& StoreHandle::reader(
    std::string_view feed) const {
  for (const Feed& f : feeds_)
    if (f.name == feed) return f.reader;
  throw std::invalid_argument("store: feed '" + std::string(feed) +
                              "' is not open in this handle");
}

bool StoreHandle::intact() const {
  for (const Feed& f : feeds_)
    if (f.reader->status() != FeedFileReader::Status::kOk ||
        f.reader->quarantined_shards() > 0)
      return false;
  return true;
}

bool StoreHandle::changed_on_disk() const {
  for (const Feed& f : feeds_)
    if (identify(f.path) != f.identity) return true;
  return false;
}

StoreHandle::FileIdentity StoreHandle::identify(const std::string& path) {
  struct stat st{};
  int rc = 0;
  do {
    rc = ::stat(path.c_str(), &st);
  } while (rc != 0 && errno == EINTR);
  FileIdentity id;
  if (rc != 0) return id;
  id.exists = true;
  id.dev = static_cast<std::uint64_t>(st.st_dev);
  id.ino = static_cast<std::uint64_t>(st.st_ino);
  id.size = static_cast<std::uint64_t>(st.st_size);
  const auto ns = [](const struct timespec& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
  };
  id.mtime_ns = ns(st.st_mtim);
  id.ctime_ns = ns(st.st_ctim);
  return id;
}

}  // namespace cellscope::store
