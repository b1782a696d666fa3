// Workloads `query_cold` and `query_hot`: dashboards reading precomputed
// per-region and per-cluster aggregates through one serve::QueryService,
// four closed-loop clients on four threads.
//
//   query_cold  KPI-group queries (metric x {region, cluster} x a seeded
//               day window) against a service whose cache keeps one answer,
//               each client cycling through its own slice of the distinct
//               queries, so every request misses and leads a store scan,
//               however fast the service answers.
//   query_hot   the load bench's 22-question dashboard corpus, warmed in
//               set-up and drawn Zipf(s = 1.2), so every request hits.
//
// Every kOk payload is checked bit-identical to a direct single-threaded
// adapter answer: the first answer to each query after the loop, every
// later one byte-for-byte against that first answer as it arrives (after
// its latency sample is taken).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "serve/query.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "store/feeds.h"
#include "store/scan.h"
#include "workloads.h"

namespace perfbench {

using namespace cellscope;

namespace {

constexpr std::size_t kClients = 4;
constexpr int kPhases = 5;
// Shed requests are retried, like a dashboard would, before they count as
// failed.
constexpr int kShedRetries = 200;

// Written by one client thread per request: one cache line apiece.
struct alignas(64) ClientLog {
  std::vector<double> latency_ms;  // sampled for query_hot, all for cold
  // The client's first kOk answer to each query, by query index.
  std::vector<std::shared_ptr<const serve::QueryValue>> first;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t not_hit = 0;  // kOk answers that were not cache hits
  std::uint64_t differ = 0;   // kOk answers unlike the first to their query
};

struct LoopResult {
  std::vector<ClientLog> clients;
  std::vector<double> phase_qps;  // completions per second, per phase
  double wall_ms = 0.0;
  double cpu_s = 0.0;
  serve::ServiceStats before;
  serve::ServiceStats after;

  [[nodiscard]] std::uint64_t done() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.done;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.failed;
    return n;
  }
  [[nodiscard]] double queries_per_s() const { return median(phase_qps); }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> all;
    for (const auto& c : clients)
      all.insert(all.end(), c.latency_ms.begin(), c.latency_ms.end());
    return all;
  }
};

serve::QueryResponse run_with_retry(serve::QueryService& service,
                                    const serve::Query& q) {
  serve::QueryResponse r;
  for (int attempt = 0; attempt < kShedRetries; ++attempt) {
    r = service.run(q);
    if (r.status != serve::QueryStatus::kShed) break;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(r.retry_after_ms, 5.0)));
  }
  return r;
}

// Four clients, each waiting for its answer before it asks again, for
// `seconds` in all. The time is split into kPhases phases, each on freshly
// started client threads; ops_per_s is the median phase rate, so a phase
// that lands on a noisy stretch of the machine does not move it.
// `next(client)` names the client's next query index.
template <typename Next>
LoopResult drive(serve::QueryService& service,
                 const std::vector<serve::Query>& queries, int seconds,
                 std::size_t latency_stride, std::size_t span_stride,
                 Tracer& tracer, Next next) {
  LoopResult result;
  result.clients.resize(kClients);
  for (auto& c : result.clients) c.first.resize(queries.size());
  result.before = service.stats();
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  const auto phase_length =
      std::chrono::duration<double>(static_cast<double>(seconds) / kPhases);
  for (int phase = 0; phase < kPhases; ++phase) {
    const auto phase_start = Clock::now();
    const auto deadline =
        phase_start +
        std::chrono::duration_cast<Clock::duration>(phase_length);
    const std::uint64_t done_before = result.done();
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = result.clients[c];
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t pick = next(c);
          const bool timed = log.done % latency_stride == 0;
          const bool traced = log.done % span_stride == 0;
          const auto t0 = timed ? Clock::now() : Clock::time_point{};
          serve::QueryResponse r;
          {
            auto scope = tracer.span(c, "serve.QueryService.run",
                                     (std::uint64_t{c} << 48) | log.done,
                                     traced);
            r = run_with_retry(service, queries[pick]);
          }
          if (timed) log.latency_ms.push_back(ms_since(t0));
          ++log.done;
          if (r.status != serve::QueryStatus::kOk) {
            ++log.failed;
          } else {
            if (!r.cache_hit) ++log.not_hit;
            // A hit hands back the cached value itself; a miss a fresh
            // one, compared in full (~10 KB).
            auto& first = log.first[pick];
            if (first == nullptr)
              first = r.value;
            else if (first != r.value && first->payload != r.value->payload)
              ++log.differ;
          }
          // The clock is read as often as latencies are sampled: every
          // request on query_cold, every 16th microsecond hit on query_hot.
          if (log.done % latency_stride == 0 && Clock::now() >= deadline)
            stop.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
    result.phase_qps.push_back(
        static_cast<double>(result.done() - done_before) /
        (ms_since(phase_start) / 1e3));
  }
  result.wall_ms = ms_since(start);
  result.cpu_s = cpu_seconds() - cpu0;
  result.after = service.stats();
  return result;
}

// The direct single-threaded adapter answer to `q`.
std::string oracle(const std::string& dir, const serve::Query& q,
                   const analysis::CellGrouping* grouping) {
  switch (q.kind) {
    case serve::QueryKind::kScalar: {
      const auto v =
          store::scan_scalar_u64(dir, static_cast<store::ScalarId>(q.id));
      return v ? serve::encode_scalar(*v) : std::string{};
    }
    case serve::QueryKind::kDailySeries: {
      const auto v = store::scan_daily_series(
          dir, static_cast<store::SeriesId>(q.id),
          static_cast<SimDay>(q.min_day), static_cast<SimDay>(q.max_day));
      return v ? serve::encode_daily(*v) : std::string{};
    }
    case serve::QueryKind::kGroupedSeries: {
      const auto v = store::scan_grouped_series(
          dir, static_cast<store::SeriesId>(q.id), q.group_count,
          static_cast<SimDay>(q.min_day), static_cast<SimDay>(q.max_day));
      return v ? serve::encode_grouped(*v) : std::string{};
    }
    case serve::QueryKind::kKpiGroupSeries: {
      const auto v = store::scan_kpi_group_series(
          dir, *grouping, q.metric, q.reduction, q.min_day, q.max_day);
      return v ? serve::encode_kpi(*v) : std::string{};
    }
  }
  return {};
}

// Checks every client's first answer to each query against
// `expected(query index)`, on kClients threads. Returns the number of
// mismatches plus the later answers that differed from their first.
template <typename Expected>
std::uint64_t count_mismatches(const std::vector<const LoopResult*>& loops,
                               Expected expected) {
  struct Answer {
    std::size_t query;
    const serve::QueryValue* value;
  };
  std::vector<Answer> answers;
  std::atomic<std::uint64_t> mismatches{0};
  for (const LoopResult* loop : loops) {
    for (const auto& c : loop->clients) {
      mismatches += c.differ;
      for (std::size_t q = 0; q < c.first.size(); ++q)
        if (c.first[q] != nullptr) answers.push_back({q, c.first[q].get()});
    }
  }
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = cursor++; i < answers.size(); i = cursor++) {
        const std::string want = expected(answers[i].query);
        if (want.empty() || answers[i].value->payload != want) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  return mismatches.load();
}

// Written once per key probe so the compiler keeps the timed calls.
volatile std::size_t g_key_sink = 0;

// Median cost, in microseconds, of building one query's cache key and
// fingerprint (what QueryService::run does before it touches the cache).
double key_cost_us(const std::vector<serve::Query>& queries, Tracer& tracer) {
  constexpr int kBatch = 1000;
  std::vector<double> per_call_us;
  std::size_t sink = 0;
  for (int rep = 0; rep < 30; ++rep) {
    auto scope = tracer.span(0, "serve.canonical_query_key+fingerprint");
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      const serve::Query& q =
          queries[static_cast<std::size_t>(i) % queries.size()];
      sink += serve::canonical_query_key(q).size();
      sink += static_cast<std::size_t>(serve::query_fingerprint(q) & 1u);
    }
    per_call_us.push_back(ms_since(t0) * 1e3 / kBatch);
  }
  g_key_sink = sink;
  return median(per_call_us);
}

void set_serve_layers(const LoopResult& loop, bool hits, Outcome& out) {
  MetricList& l = out.layers;
  const auto& a = loop.after;
  const auto& b = loop.before;
  auto sorted = loop.latencies();
  std::sort(sorted.begin(), sorted.end());
  if (hits) {
    l.set("serve.hit_p50_us", nearest_rank(sorted, 50.0) * 1e3, "us");
    l.set("serve.hit_p99_us", nearest_rank(sorted, 99.0) * 1e3, "us");
  } else {
    l.set("serve.miss_p50_ms", nearest_rank(sorted, 50.0), "ms");
  }
  const double requests = static_cast<double>(a.requests - b.requests);
  l.set("serve.hits", static_cast<double>(a.hits - b.hits), "count");
  l.set("serve.misses", static_cast<double>(a.misses - b.misses), "count");
  l.set("serve.waits", static_cast<double>(a.waits - b.waits), "count");
  l.set("serve.sheds", static_cast<double>(a.sheds - b.sheds), "count");
  l.set("serve.evictions", static_cast<double>(a.evictions - b.evictions),
        "count");
  l.set("serve.hit_ratio",
        requests > 0 ? static_cast<double>(a.hits - b.hits) / requests : 0.0,
        "ratio");
  l.set("serve.cache_bytes", static_cast<double>(a.cache_bytes), "bytes");
  l.set("serve.cpu_per_wall", loop.cpu_s / (loop.wall_ms / 1e3), "ratio");
}

void report(const char* label, const LoopResult& loop) {
  const auto& a = loop.after;
  const auto& b = loop.before;
  std::cout << "  " << label << ": " << loop.done() << " queries by "
            << kClients << " clients in " << loop.wall_ms / 1e3 << " s, "
            << loop.queries_per_s() << " queries/s (median phase); latency "
            << describe(summarize(loop.latencies()), "ms") << "\n"
            << "    per phase: "
            << describe(summarize(loop.phase_qps), "queries/s") << "\n"
            << "    service: " << a.hits - b.hits << " hits, "
            << a.misses - b.misses << " misses, " << a.waits - b.waits
            << " waits, " << a.sheds - b.sheds << " sheds, "
            << a.degraded - b.degraded << " degraded; "
            << loop.failed() << " failed\n";
}

void set_end_to_end(const LoopResult& loop, double setup_s, double rss_mb,
                    Outcome& out) {
  out.end_to_end.set("setup_s", setup_s, "s");
  out.end_to_end.set("peak_rss_mb", rss_mb, "MB");
  out.end_to_end.set("ops_per_s", loop.queries_per_s(), "1/s");
  out.end_to_end.set("op_p50_ms", summarize(loop.latencies()).p50, "ms");
}

void account(const LoopResult& loop, Outcome& out) {
  out.attempted += loop.done();
  out.failed += loop.failed();
}

}  // namespace

// ------------------------------------------------------------ query_cold

Outcome run_query_cold(const Options& opt) {
  const sim::ScenarioConfig config = bench_scenario(opt.seed);
  Outcome out;

  const auto setup0 = Clock::now();
  const std::string dir = fresh_dir(opt, "store");
  const Groupings groupings = build_groupings(config);
  build_store(config, dir);
  // A cache that keeps one answer: the last one computed (an answer larger
  // than the budget stays until the next arrives). No client asks the same
  // query twice in a row and no two clients share one, so a repeat always
  // finds it evicted and leads its own scan.
  serve::QueryServiceOptions options;
  options.cache_shards = 1;
  options.cache_bytes = 1;
  serve::QueryService service(dir, sim::config_digest(config), options);
  service.register_grouping("region", groupings.region);
  service.register_grouping("cluster", groupings.cluster);

  // Distinct queries drawn from the seed: metric x grouping x a window of
  // 1-28 KPI days, kPerClient for each client.
  constexpr std::size_t kPerClient = 64;
  constexpr std::size_t kDistinct = kPerClient * kClients;
  std::vector<serve::Query> queries;
  {
    Rng rng = Rng(config.seed).fork("perfbench_cold_queries");
    const std::int64_t first = config.kpi_first_day();
    const std::int64_t days = config.last_day() - first + 1;
    std::set<std::tuple<int, int, std::int64_t, std::int64_t>> seen;
    while (queries.size() < kDistinct) {
      const int metric = static_cast<int>(
          rng.uniform_index(telemetry::kKpiMetricCount));
      const int grouping = static_cast<int>(rng.uniform_index(2));
      const auto length = static_cast<std::int64_t>(1 + rng.uniform_index(28));
      const std::int64_t lo =
          first + static_cast<std::int64_t>(rng.uniform_index(
                      static_cast<std::uint64_t>(days - length + 1)));
      if (!seen.emplace(metric, grouping, lo, lo + length - 1).second) continue;
      serve::Query q;
      q.kind = serve::QueryKind::kKpiGroupSeries;
      q.metric = static_cast<telemetry::KpiMetric>(metric);
      q.grouping = grouping == 0 ? "region" : "cluster";
      q.min_day = lo;
      q.max_day = lo + length - 1;
      queries.push_back(q);
    }
  }
  const double setup_s = ms_since(setup0) / 1e3;
  std::cout << "query_cold: store built and service up in " << setup_s
            << " s; " << queries.size() << " distinct queries drawn\n";

  // Client c asks queries c, c + kClients, c + 2 kClients, ... in turn.
  struct alignas(64) ClientCursor {
    std::size_t asked = 0;
  };
  std::vector<ClientCursor> cursors(kClients);
  const auto next = [&](std::size_t c) {
    return c + kClients * (cursors[c].asked++ % kPerClient);
  };

  Tracer untraced(false, kClients);
  reset_peak_rss();
  const LoopResult base = drive(service, queries, opt.seconds, 1, 1,
                                untraced, next);
  const double rss_mb = peak_rss_mb();
  report("untraced", base);
  set_end_to_end(base, setup_s, rss_mb, out);
  account(base, out);
  out.layers.set("sim.substrate_ms", groupings.substrate_ms, "ms");

  std::vector<const LoopResult*> loops = {&base};
  LoopResult traced;
  if (opt.trace) {
    Tracer tracer(true, kClients);
    traced = drive(service, queries, opt.seconds, 1, 1, tracer, next);
    report("traced", traced);
    account(traced, out);
    loops.push_back(&traced);
    set_overhead(out, base.queries_per_s(), traced.queries_per_s());
    set_serve_layers(traced, /*hits=*/false, out);
    probe_scans(dir, groupings.region, seeded_week(config), 3, tracer, out);
    const std::vector<serve::Query> sample(queries.begin(),
                                           queries.begin() + 22);
    out.layers.set("serve.key_us", key_cost_us(sample, tracer), "us");
    save_trace(opt, tracer);
  }

  // Every request led its own scan: no hit, no joined flight (both count
  // as hits).
  for (const LoopResult* loop : loops)
    if (loop->after.hits != loop->before.hits)
      out.error("query_cold saw cache hits; a request did not scan");
  const auto mismatches =
      count_mismatches(loops, [&](std::size_t i) {
        const serve::Query& q = queries[i];
        return oracle(dir, q,
                      q.grouping == "region" ? &groupings.region
                                             : &groupings.cluster);
      });
  if (mismatches > 0)
    out.error(std::to_string(mismatches) +
              " query_cold answers differ from direct adapter scans");
  std::filesystem::remove_all(opt.work_dir + "/" + opt.workload);
  return out;
}

// ------------------------------------------------------------- query_hot

Outcome run_query_hot(const Options& opt) {
  const sim::ScenarioConfig config = bench_scenario(opt.seed);
  Outcome out;

  const auto setup0 = Clock::now();
  const std::string dir = fresh_dir(opt, "store");
  const Groupings groupings = build_groupings(config);
  build_store(config, dir);
  serve::QueryService service(dir, sim::config_digest(config));
  service.register_grouping("region", groupings.region);

  // The load bench's dashboard corpus: scalars, daily series, grouped
  // mobility series and the eleven per-region KPI panels.
  const SimDay first = config.first_day();
  const SimDay last = config.last_day();
  std::vector<serve::Query> corpus;
  const auto add = [&](serve::QueryKind kind, std::uint64_t id,
                       std::uint64_t groups) {
    serve::Query q;
    q.kind = kind;
    q.id = id;
    q.group_count = groups;
    if (kind != serve::QueryKind::kScalar) {
      q.min_day = first;
      q.max_day = last;
    }
    corpus.push_back(q);
  };
  for (const auto id : {store::kKpiRowCount, store::kEligibleUsers,
                        store::kLondonResidents, store::kSignalingDayCount})
    add(serve::QueryKind::kScalar, id, 0);
  for (const auto id : {store::kRoamersActive, store::kOffnetBusyHour,
                        store::kInterconnectLoss})
    add(serve::QueryKind::kDailySeries, id, 0);
  add(serve::QueryKind::kGroupedSeries, store::kEntropyNational, 1);
  add(serve::QueryKind::kGroupedSeries, store::kGyrationNational, 1);
  add(serve::QueryKind::kGroupedSeries, store::kEntropyByRegion,
      groupings.region.group_count());
  add(serve::QueryKind::kGroupedSeries, store::kGyrationByRegion,
      groupings.region.group_count());
  for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
    serve::Query q;
    q.kind = serve::QueryKind::kKpiGroupSeries;
    q.metric = static_cast<telemetry::KpiMetric>(m);
    q.grouping = "region";
    corpus.push_back(q);
  }

  // Direct adapter answers, then the warm-up that puts every one of them
  // in the cache.
  std::vector<std::string> expected;
  for (const auto& q : corpus) {
    expected.push_back(oracle(dir, q, &groupings.region));
    if (expected.back().empty())
      throw std::runtime_error("adapter refused a corpus query on a fresh "
                               "store");
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto r = service.run(corpus[i]);
    if (r.status != serve::QueryStatus::kOk ||
        r.value->payload != expected[i])
      out.error("warm-up answer differs from the direct adapter answer");
  }
  const double setup_s = ms_since(setup0) / 1e3;
  std::cout << "query_hot: store built, " << corpus.size()
            << " corpus queries warmed in " << setup_s << " s\n";

  // Zipf(s = 1.2) over the corpus: a few hot questions dominate.
  std::vector<double> cdf(corpus.size());
  double norm = 0.0;
  for (std::size_t i = 0; i < corpus.size(); ++i)
    norm += 1.0 / std::pow(static_cast<double>(i + 1), 1.2);
  double acc = 0.0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), 1.2) / norm;
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  // One stream per client, each on its own cache line.
  struct alignas(64) ClientRng {
    Rng rng;
  };
  std::vector<ClientRng> rngs;
  for (std::size_t c = 0; c < kClients; ++c)
    rngs.push_back({Rng(config.seed).fork("perfbench_hot_client", c)});
  const auto next = [&](std::size_t c) {
    const double u = rngs[c].rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };

  // Hits take about a microsecond: time every 16th request, keep a span
  // for every 256th.
  Tracer untraced(false, kClients);
  reset_peak_rss();
  const LoopResult base =
      drive(service, corpus, opt.seconds, 16, 256, untraced, next);
  const double rss_mb = peak_rss_mb();
  report("untraced", base);
  set_end_to_end(base, setup_s, rss_mb, out);
  account(base, out);
  out.layers.set("sim.substrate_ms", groupings.substrate_ms, "ms");

  std::vector<const LoopResult*> loops = {&base};
  LoopResult traced;
  if (opt.trace) {
    Tracer tracer(true, kClients);
    traced = drive(service, corpus, opt.seconds, 16, 256, tracer, next);
    report("traced", traced);
    account(traced, out);
    loops.push_back(&traced);
    set_overhead(out, base.queries_per_s(), traced.queries_per_s());
    set_serve_layers(traced, /*hits=*/true, out);
    out.layers.set("serve.key_us", key_cost_us(corpus, tracer), "us");
    save_trace(opt, tracer);
  }

  for (const LoopResult* loop : loops) {
    std::uint64_t not_hit = 0;
    for (const auto& c : loop->clients) not_hit += c.not_hit;
    if (not_hit > 0)
      out.error(std::to_string(not_hit) +
                " query_hot answers were not cache hits");
  }
  const auto mismatches = count_mismatches(
      loops, [&](std::size_t i) { return expected[i]; });
  if (mismatches > 0)
    out.error(std::to_string(mismatches) +
              " query_hot answers differ from direct adapter answers");
  std::filesystem::remove_all(opt.work_dir + "/" + opt.workload);
  return out;
}

}  // namespace perfbench
