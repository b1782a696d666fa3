#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/runtime.h"
#include "store/feeds.h"
#include "store/scan.h"

namespace cellscope::serve {

namespace {

// Every feed the four adapters read (see their "Reads:" notes in
// store/scan.h).
const std::vector<std::string> kServedFeeds = {"scalars", "kpis", "series"};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

bool QueryService::AdmissionGate::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (permits_ > 0) {
    --permits_;
    return true;
  }
  if (waiting_ >= queue_depth_) return false;
  ++waiting_;
  cv_.wait(lock, [&] { return permits_ > 0; });
  --waiting_;
  --permits_;
  return true;
}

void QueryService::AdmissionGate::release() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++permits_;
  }
  cv_.notify_one();
}

std::size_t QueryService::AdmissionGate::waiting() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return waiting_;
}

QueryService::QueryService(std::string store_dir, std::string config_digest,
                           QueryServiceOptions options)
    : store_dir_(std::move(store_dir)),
      digest_(std::move(config_digest)),
      options_(options),
      cache_(options.cache_shards, options.cache_bytes),
      gate_(std::max<std::size_t>(1, options.max_inflight_scans),
            options.max_queue_depth) {}

void QueryService::register_grouping(const std::string& name,
                                     analysis::CellGrouping grouping) {
  if (serving_started_.load(std::memory_order_acquire))
    throw std::logic_error("serve: register_grouping after serving started");
  if (name.empty() || name.find('|') != std::string::npos ||
      name.find('\n') != std::string::npos)
    throw std::invalid_argument("serve: grouping name '" + name +
                                "' cannot round-trip a canonical key");
  groupings_.insert_or_assign(name, std::move(grouping));
}

void QueryService::attach_quality(telemetry::FeedQualityReport* quality) {
  const std::lock_guard<std::mutex> lock(quality_mutex_);
  quality_ = quality;
}

std::shared_ptr<const store::StoreHandle> QueryService::current_store() {
  const std::lock_guard<std::mutex> lock(store_mutex_);
  if (store_ != nullptr && !store_->changed_on_disk()) return store_;
  auto fresh = std::make_shared<const store::StoreHandle>(store_dir_,
                                                          kServedFeeds);
  store_ = fresh->intact() ? fresh : nullptr;
  return fresh;
}

std::shared_ptr<const QueryValue> QueryService::execute(
    const store::StoreHandle& store, const Query& q) {
  // Each leader runs the adapter on its own stack with its own
  // FeedScanner; what leaders share is the handle's immutable, already
  // validated readers.
  auto value = std::make_shared<QueryValue>();
  value->kind = q.kind;
  switch (q.kind) {
    case QueryKind::kScalar: {
      const auto scalar =
          store::scan_scalar_u64(store, static_cast<store::ScalarId>(q.id));
      if (!scalar) return nullptr;
      value->scalar = *scalar;
      value->payload = encode_scalar(*scalar);
      return value;
    }
    case QueryKind::kDailySeries: {
      auto daily = store::scan_daily_series(
          store, static_cast<store::SeriesId>(q.id),
          static_cast<SimDay>(q.min_day), static_cast<SimDay>(q.max_day));
      if (!daily) return nullptr;
      value->payload = encode_daily(*daily);
      value->daily = std::move(*daily);
      return value;
    }
    case QueryKind::kGroupedSeries: {
      auto grouped = store::scan_grouped_series(
          store, static_cast<store::SeriesId>(q.id),
          static_cast<std::size_t>(q.group_count),
          static_cast<SimDay>(q.min_day), static_cast<SimDay>(q.max_day));
      if (!grouped) return nullptr;
      value->payload = encode_grouped(*grouped);
      value->grouped = std::move(*grouped);
      return value;
    }
    case QueryKind::kKpiGroupSeries: {
      const auto it = groupings_.find(q.grouping);
      if (it == groupings_.end()) return nullptr;  // caught in run()
      auto kpi = store::scan_kpi_group_series(store, it->second, q.metric,
                                              q.reduction, q.min_day,
                                              q.max_day);
      if (!kpi) return nullptr;
      value->payload = encode_kpi(*kpi);
      value->kpi = std::move(*kpi);
      return value;
    }
  }
  return nullptr;
}

void QueryService::note_degraded(const std::string& key) {
  const std::lock_guard<std::mutex> lock(quality_mutex_);
  if (quality_ != nullptr) store::note_scan_fallback(*quality_, "serve");
  (void)key;
}

void QueryService::publish_cache_gauges() {
  if (!obs::enabled()) return;
  auto& registry = obs::metrics();
  registry.set_gauge("serve.cache_bytes",
                     static_cast<double>(cache_.bytes()));
  registry.set_gauge("serve.cache_entries",
                     static_cast<double>(cache_.entries()));
}

QueryResponse QueryService::run(const Query& query) {
  serving_started_.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  const bool obs_on = obs::enabled();

  QueryResponse response;
  const Query q = normalize_query(query);
  response.fingerprint = query_fingerprint(q);

  // Structural validation up front: a malformed query must not consume an
  // admission permit or poison the cache with unanswerable keys. The
  // series kinds size their result from the day range, so the range must
  // be concrete SimDays, not the full-range sentinels KPI queries accept.
  const auto fits_simday = [](std::int64_t d) {
    return d >= std::numeric_limits<SimDay>::min() &&
           d <= std::numeric_limits<SimDay>::max();
  };
  const bool sized_series = q.kind == QueryKind::kDailySeries ||
                            q.kind == QueryKind::kGroupedSeries;
  const bool bad =
      (q.kind == QueryKind::kKpiGroupSeries &&
       groupings_.find(q.grouping) == groupings_.end()) ||
      (q.kind == QueryKind::kGroupedSeries && q.group_count == 0) ||
      (q.kind != QueryKind::kScalar && q.min_day > q.max_day) ||
      (sized_series && (!fits_simday(q.min_day) || !fits_simday(q.max_day)));
  if (bad) {
    response.status = QueryStatus::kBadQuery;
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.requests;
      ++stats_.bad_queries;
    }
    if (obs_on) obs::metrics().add("serve.bad_queries", 1);
    return response;
  }

  const std::string key = digest_ + '#' + canonical_query_key(q);

  const auto outcome = cache_.get_or_compute(
      key, response.fingerprint, [&]() -> ResultCache::ComputeResult {
        if (!gate_.acquire()) return {nullptr, /*shed=*/true};
        const auto scan_t0 = std::chrono::steady_clock::now();
        std::shared_ptr<const QueryValue> value;
        try {
          value = execute(*current_store(), q);
        } catch (...) {
          gate_.release();
          throw;
        }
        gate_.release();
        const double scan_ms = ms_since(scan_t0);
        // EWMA alpha 1/8: smooth enough to ride out one slow scan, fresh
        // enough to track a phase change. Racy by design (hint only).
        const double prev = scan_ewma_ms_.load(std::memory_order_relaxed);
        scan_ewma_ms_.store(prev + (scan_ms - prev) / 8.0,
                            std::memory_order_relaxed);
        if (obs_on) obs::metrics().histogram("serve.scan_ms").record(scan_ms);
        return {std::move(value), false};
      });

  if (outcome.shed) {
    response.status = QueryStatus::kShed;
    const double ewma = scan_ewma_ms_.load(std::memory_order_relaxed);
    response.retry_after_ms = std::max(
        1.0, ewma * static_cast<double>(gate_.waiting() + 1));
  } else if (outcome.value == nullptr) {
    response.status = QueryStatus::kDegraded;
    // One quality-ledger charge per degraded *event*: the leader computed
    // (and was refused) exactly once, so only the leader charges.
    if (outcome.leader) note_degraded(key);
  } else {
    response.status = QueryStatus::kOk;
    response.cache_hit = outcome.hit || outcome.waited;
    response.value = outcome.value;
  }

  const double latency_ms = ms_since(t0);
  const bool served_hit =
      response.status == QueryStatus::kOk && response.cache_hit;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
    if (outcome.shed) ++stats_.sheds;
    else if (outcome.value == nullptr && outcome.leader) ++stats_.degraded;
    if (served_hit) ++stats_.hits;
    if (outcome.leader) ++stats_.misses;
    if (outcome.waited) ++stats_.waits;
  }
  if (obs_on) {
    auto& registry = obs::metrics();
    registry.add("serve.requests", 1);
    if (outcome.shed) registry.add("serve.sheds", 1);
    if (served_hit) registry.add("serve.hits", 1);
    if (outcome.leader) {
      registry.add("serve.misses", 1);
      if (outcome.value == nullptr && !outcome.shed)
        registry.add("serve.degraded", 1);
    }
    if (outcome.waited) registry.add("serve.waits", 1);
    registry.histogram("serve.latency_ms").record(latency_ms);
    if (outcome.leader) publish_cache_gauges();
  }
  return response;
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  out.evictions = cache_.evictions();
  out.cache_bytes = cache_.bytes();
  out.cache_entries = cache_.entries();
  return out;
}

}  // namespace cellscope::serve
