// QueryService: thread-safe in-process query serving over a cellstore.
//
// One service fronts one store directory pinned to one config_digest (the
// simulate-once/replay-many identity from sim/scenario.h). Request flow:
//
//   run(query)
//     ├─ cache lookup (serve/cache.h) ............ hit -> answer
//     ├─ admission gate .................. full queue -> kShed + retry_after
//     └─ single-flight compute: the leader's own FeedScanner over the
//        service's shared StoreHandle
//          ├─ adapter answers ......................... kOk, cached
//          └─ adapter refuses (store damage) .......... kDegraded, uncached
//
// The service keeps one store::StoreHandle: the feeds the adapters read,
// mapped and CRC-verified once. Leaders on any thread borrow it; each
// scanner state (cursor, decode buffers) stays per-leader, only the
// immutable validated readers are shared. On every miss the leader stats
// the handle's feed files and opens a new handle if any changed (a store
// regenerated by atomic rename is picked up on the next miss); in-flight
// scans finish on the generation they started with. A handle whose open
// found any damage is used for that one request and never kept, so a
// damaged store is re-verified, and degrades, on every request.
//
// Admission bounds in-flight scans with a counting gate: up to
// max_inflight_scans leaders scan concurrently, up to max_queue_depth more
// block waiting for a permit, and everything beyond that is shed
// immediately with a retry_after_ms hint derived from the observed scan
// latency (EWMA) times the queue it would have joined. Followers joining
// an identical in-flight query park on the flight itself, not the gate —
// a thousand dashboards asking the same question cost one permit.
//
// Degraded answers honor the scan layer's never-serve-partial contract:
// a refused adapter yields kDegraded with no value, is never cached, and
// each degraded *event* (not each waiter) is charged to the quality
// ledger via store::note_scan_fallback when a ledger is attached.
//
// Metrics (when obs::enabled()): serve.requests / serve.hits /
// serve.misses / serve.sheds / serve.waits / serve.degraded counters,
// serve.latency_ms + serve.scan_ms histograms (thread-safe since this PR),
// serve.cache_bytes / serve.cache_entries gauges. None of it enters
// config_digest.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/cache.h"
#include "serve/query.h"
#include "store/handle.h"
#include "telemetry/quality.h"

namespace cellscope::serve {

struct QueryServiceOptions {
  std::size_t max_inflight_scans = 8;  // concurrent leader scans
  std::size_t max_queue_depth = 64;    // blocked leaders before shedding
  std::size_t cache_shards = 16;
  std::size_t cache_bytes = 64ull << 20;
};

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kShed,       // admission queue full; retry after retry_after_ms
  kDegraded,   // store damage: scan adapter refused, no partial answer
  kBadQuery,   // unknown grouping name / malformed query
};

struct QueryResponse {
  QueryStatus status = QueryStatus::kOk;
  bool cache_hit = false;    // answered from cache (or a joined flight)
  std::uint64_t fingerprint = 0;
  double retry_after_ms = 0.0;  // only meaningful for kShed
  std::shared_ptr<const QueryValue> value;  // null unless kOk
};

// Cumulative service counters (independent of obs, for tests/benches).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;        // cache hits + joined flights
  std::uint64_t misses = 0;      // leader computes
  std::uint64_t sheds = 0;
  std::uint64_t waits = 0;       // joined an in-progress flight
  std::uint64_t degraded = 0;    // refused computes (leaders only)
  std::uint64_t bad_queries = 0;
  std::uint64_t evictions = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_entries = 0;
};

class QueryService {
 public:
  // Counting admission gate: max `permits` holders scan at once, up to
  // `queue_depth` more block for a permit, the rest are turned away.
  // Public so tests can pin its shed behavior down deterministically.
  class AdmissionGate {
   public:
    AdmissionGate(std::size_t permits, std::size_t queue_depth)
        : permits_(permits), queue_depth_(queue_depth) {}
    // False = shed (queue full). Otherwise blocks until a permit is held.
    bool acquire();
    void release();
    [[nodiscard]] std::size_t waiting() const;

   private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t permits_;
    std::size_t queue_depth_;
    std::size_t waiting_ = 0;
  };

  QueryService(std::string store_dir, std::string config_digest,
               QueryServiceOptions options = {});

  // Registers a CellGrouping under `name` for kKpiGroupSeries queries.
  // Registration is construction-time state: call before serving starts
  // (names containing '|' or newline throw std::invalid_argument; the
  // canonical key could not round-trip them).
  void register_grouping(const std::string& name,
                         analysis::CellGrouping grouping);

  // Optional quality ledger: every degraded event lands there exactly
  // once (store::note_scan_fallback). The ledger's own thread safety is
  // the service's problem — charges are serialized internally.
  void attach_quality(telemetry::FeedQualityReport* quality);

  // Thread-safe. Blocks at most (queue wait + one scan); never throws on
  // store damage.
  [[nodiscard]] QueryResponse run(const Query& query);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const std::string& store_dir() const { return store_dir_; }
  [[nodiscard]] const std::string& config_digest() const { return digest_; }

 private:
  [[nodiscard]] std::shared_ptr<const QueryValue> execute(
      const store::StoreHandle& store, const Query& q);
  // The kept handle, reopened first when missing or changed on disk.
  [[nodiscard]] std::shared_ptr<const store::StoreHandle> current_store();
  void note_degraded(const std::string& key);
  void publish_cache_gauges();

  std::string store_dir_;
  std::string digest_;
  QueryServiceOptions options_;
  ResultCache cache_;
  AdmissionGate gate_;
  std::map<std::string, analysis::CellGrouping> groupings_;
  // Flips on first run(); register_grouping refuses afterwards, which is
  // what lets run() read groupings_ without a lock.
  std::atomic<bool> serving_started_{false};

  // Guards the kept handle; held across a reopen so concurrent misses
  // wait for one verify instead of each doing their own.
  std::mutex store_mutex_;
  std::shared_ptr<const store::StoreHandle> store_;

  telemetry::FeedQualityReport* quality_ = nullptr;
  std::mutex quality_mutex_;

  // EWMA of leader scan latency, feeding retry_after_ms. A hint, not an
  // invariant: relaxed atomics are deliberate.
  std::atomic<double> scan_ewma_ms_{1.0};

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
};

}  // namespace cellscope::serve
