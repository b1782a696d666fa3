#include "sim/checkpoint.h"

#include <utility>

#include "sim/simulator.h"

namespace cellscope::sim {

namespace {

// ------------------------------------------------------------------- save

void save_daily(const DailySeries& s, BlobWriter& w) {
  std::uint64_t entries = 0;
  if (!s.empty())
    for (SimDay day = s.first_day(); day <= s.last_day(); ++day)
      if (s.count(day) > 0) ++entries;
  w.u64(entries);
  if (s.empty()) return;
  for (SimDay day = s.first_day(); day <= s.last_day(); ++day) {
    const std::size_t count = s.count(day);
    if (count == 0) continue;
    w.i64(day);
    w.f64(s.day_sum(day));
    w.u64(count);
  }
}

void save_grouped(const analysis::GroupedDailySeries& g, BlobWriter& w) {
  w.u64(g.group_count());
  for (std::size_t i = 0; i < g.group_count(); ++i) save_daily(g.group(i), w);
}

void save_distribution(const analysis::DistributionSeries& d, BlobWriter& w) {
  std::uint64_t sealed = 0;
  if (d.first_day() <= d.last_day())
    for (SimDay day = d.first_day(); day <= d.last_day(); ++day)
      if (d.sealed_day(day)) ++sealed;
  w.u64(sealed);
  if (d.first_day() > d.last_day()) return;
  for (SimDay day = d.first_day(); day <= d.last_day(); ++day) {
    if (!d.sealed_day(day)) continue;
    const stats::Summary& s = d.day_summary(day);
    w.i64(day);
    w.u64(s.n);
    w.f64(s.mean);
    w.f64(s.p10);
    w.f64(s.p25);
    w.f64(s.median);
    w.f64(s.p75);
    w.f64(s.p90);
  }
}

// ---------------------------------------------------------------- restore

void restore_daily(DailySeries& s, BlobReader& r) {
  const std::uint64_t entries = r.u64();
  for (std::uint64_t i = 0; i < entries; ++i) {
    const auto day = static_cast<SimDay>(r.i64());
    const double sum = r.f64();
    const auto count = static_cast<std::size_t>(r.u64());
    s.restore(day, sum, count);
  }
}

void restore_grouped(analysis::GroupedDailySeries& g, BlobReader& r) {
  const std::uint64_t groups = r.u64();
  if (groups != g.group_count())
    throw BlobError{"checkpoint blob: grouped-series shape mismatch"};
  for (std::uint64_t i = 0; i < groups; ++i)
    restore_daily(g.group_mutable(static_cast<std::size_t>(i)), r);
}

void restore_distribution(analysis::DistributionSeries& d, BlobReader& r) {
  const std::uint64_t sealed = r.u64();
  for (std::uint64_t i = 0; i < sealed; ++i) {
    const auto day = static_cast<SimDay>(r.i64());
    stats::Summary s;
    s.n = static_cast<std::size_t>(r.u64());
    s.mean = r.f64();
    s.p10 = r.f64();
    s.p25 = r.f64();
    s.median = r.f64();
    s.p75 = r.f64();
    s.p90 = r.f64();
    d.restore_day(day, s);
  }
}

}  // namespace

void save_dataset_state(const Dataset& ds, BlobWriter& w) {
  // Homes + Fig 2 validation (present only once homes finalized).
  w.u64(ds.homes.size());
  for (const auto& h : ds.homes) {
    w.u32(h.user.value());
    w.u32(h.home_site.value());
    w.u32(h.home_district.value());
    w.u32(h.home_county.value());
    w.f64(h.night_hours);
    w.i64(h.nights_observed);
  }
  w.u64(ds.home_validation.points.size());
  for (const auto& p : ds.home_validation.points) {
    w.u32(p.lad.value());
    w.i64(p.census_population);
    w.i64(p.inferred_residents);
  }
  w.f64(ds.home_validation.fit.slope);
  w.f64(ds.home_validation.fit.intercept);
  w.f64(ds.home_validation.fit.r_squared);
  w.u64(ds.home_validation.fit.n);
  w.f64(ds.home_validation.expected_market_share);

  // Inner London relocation matrix.
  w.u64(ds.london_residents_tracked);
  w.u8(ds.london_matrix != nullptr ? 1 : 0);
  if (ds.london_matrix != nullptr) {
    const auto& m = *ds.london_matrix;
    w.u32(m.home_county().value());
    w.i64(m.first_day());
    w.i64(m.last_day());
    std::uint64_t presence_rows = 0;
    const auto counties = ds.geography->counties().size();
    for (std::uint32_t c = 0; c < counties; ++c)
      for (SimDay day = m.first_day(); day <= m.last_day(); ++day)
        if (m.presence(CountyId{c}, day) != 0.0) ++presence_rows;
    w.u64(presence_rows);
    for (std::uint32_t c = 0; c < counties; ++c) {
      for (SimDay day = m.first_day(); day <= m.last_day(); ++day) {
        const double presence = m.presence(CountyId{c}, day);
        if (presence == 0.0) continue;
        w.u32(c);
        w.i64(day);
        w.f64(presence);
      }
    }
    std::uint64_t observation_rows = 0;
    for (SimDay day = m.first_day(); day <= m.last_day(); ++day)
      if (m.day_observations(day) != 0) ++observation_rows;
    w.u64(observation_rows);
    for (SimDay day = m.first_day(); day <= m.last_day(); ++day) {
      const std::size_t observations = m.day_observations(day);
      if (observations == 0) continue;
      w.i64(day);
      w.u64(observations);
    }
  }

  // Mobility aggregates and interconnect/roamer diagnostics.
  save_grouped(ds.entropy_national, w);
  save_grouped(ds.gyration_national, w);
  save_grouped(ds.entropy_by_region, w);
  save_grouped(ds.gyration_by_region, w);
  save_grouped(ds.entropy_by_cluster, w);
  save_grouped(ds.gyration_by_cluster, w);
  save_grouped(ds.entropy_by_bin, w);
  save_grouped(ds.gyration_by_bin, w);
  save_daily(ds.offnet_busy_hour_minutes, w);
  save_daily(ds.interconnect_busy_hour_loss_pct, w);
  save_daily(ds.roamers_active, w);
  save_distribution(ds.gyration_distribution, w);
  save_distribution(ds.entropy_distribution, w);

  // Voice ledger.
  w.u64(ds.voice_calls.days().size());
  for (const auto& d : ds.voice_calls.days()) {
    w.i64(d.day);
    w.u64(d.attempts);
    w.u64(d.completed);
    w.u64(d.blocked);
    w.u64(d.dropped);
  }

  // Signaling probe.
  w.u64(ds.signaling.days().size());
  for (const auto& d : ds.signaling.days()) {
    w.i64(d.day);
    for (int t = 0; t < traffic::kSignalingEventTypeCount; ++t) {
      w.u64(d.total[t]);
      w.u64(d.failures[t]);
    }
  }

  // Quality ledger: feeds in creation order (the order IS state — the
  // report keeps feeds in first-touch order and dataset equality compares
  // them positionally).
  w.u64(ds.quality.feeds().size());
  for (const auto& f : ds.quality.feeds()) {
    w.bytes(f.name);
    w.u64(f.expected_records);
    w.u64(f.observed_records);
    w.u64(f.quarantined_records);
    w.u64(f.duplicate_records);
    w.u64(f.days.size());
    for (const auto& [day, counts] : f.days) {
      w.i64(day);
      w.u64(counts.expected);
      w.u64(counts.observed);
    }
  }
}

void restore_dataset_state(Dataset& ds, BlobReader& r) {
  // Counts that size a container are bounded by the bytes left: a home
  // takes at least 13 of them, a validation point at least 3.
  const std::size_t n_homes = r.count(13);
  ds.homes.clear();
  ds.homes.reserve(n_homes);
  for (std::size_t i = 0; i < n_homes; ++i) {
    analysis::HomeRecord h;
    h.user = UserId{r.u32()};
    h.home_site = SiteId{r.u32()};
    h.home_district = PostcodeDistrictId{r.u32()};
    h.home_county = CountyId{r.u32()};
    h.night_hours = r.f64();
    h.nights_observed = static_cast<int>(r.i64());
    ds.homes.push_back(h);
  }
  const std::size_t n_points = r.count(3);
  ds.home_validation.points.clear();
  ds.home_validation.points.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    analysis::LadValidationPoint p;
    p.lad = LadId{r.u32()};
    p.census_population = r.i64();
    p.inferred_residents = r.i64();
    ds.home_validation.points.push_back(p);
  }
  ds.home_validation.fit.slope = r.f64();
  ds.home_validation.fit.intercept = r.f64();
  ds.home_validation.fit.r_squared = r.f64();
  ds.home_validation.fit.n = static_cast<std::size_t>(r.u64());
  ds.home_validation.expected_market_share = r.f64();

  ds.london_residents_tracked = static_cast<std::size_t>(r.u64());
  if (r.u8() != 0) {
    const CountyId home_county{r.u32()};
    const std::int64_t first = r.i64();
    const std::int64_t last = r.i64();
    const std::size_t counties = ds.geography->counties().size();
    // The matrix is sized by these, so they must describe this scenario.
    if (home_county.value() >= counties || first > last ||
        first < ds.config.first_day() || last > ds.config.last_day())
      throw BlobError{"checkpoint blob: relocation matrix outside the run"};
    ds.london_matrix = std::make_unique<analysis::MobilityMatrix>(
        *ds.geography, home_county, static_cast<SimDay>(first),
        static_cast<SimDay>(last));
    const std::uint64_t presence_rows = r.u64();
    for (std::uint64_t i = 0; i < presence_rows; ++i) {
      const std::uint32_t county = r.u32();
      if (county >= counties)
        throw BlobError{"checkpoint blob: relocation county out of range"};
      const auto day = static_cast<SimDay>(r.i64());
      ds.london_matrix->restore_presence(CountyId{county}, day, r.f64());
    }
    const std::uint64_t observation_rows = r.u64();
    for (std::uint64_t i = 0; i < observation_rows; ++i) {
      const auto day = static_cast<SimDay>(r.i64());
      ds.london_matrix->restore_observations(
          day, static_cast<std::size_t>(r.u64()));
    }
  } else {
    ds.london_matrix.reset();
  }

  restore_grouped(ds.entropy_national, r);
  restore_grouped(ds.gyration_national, r);
  restore_grouped(ds.entropy_by_region, r);
  restore_grouped(ds.gyration_by_region, r);
  restore_grouped(ds.entropy_by_cluster, r);
  restore_grouped(ds.gyration_by_cluster, r);
  restore_grouped(ds.entropy_by_bin, r);
  restore_grouped(ds.gyration_by_bin, r);
  restore_daily(ds.offnet_busy_hour_minutes, r);
  restore_daily(ds.interconnect_busy_hour_loss_pct, r);
  restore_daily(ds.roamers_active, r);
  restore_distribution(ds.gyration_distribution, r);
  restore_distribution(ds.entropy_distribution, r);

  const std::uint64_t n_voice = r.u64();
  for (std::uint64_t i = 0; i < n_voice; ++i) {
    traffic::VoiceDayCalls d;
    d.day = static_cast<SimDay>(r.i64());
    d.attempts = r.u64();
    d.completed = r.u64();
    d.blocked = r.u64();
    d.dropped = r.u64();
    ds.voice_calls.record_day(d);
  }

  const std::uint64_t n_signaling = r.u64();
  for (std::uint64_t i = 0; i < n_signaling; ++i) {
    telemetry::DailySignalingCounts counts;
    counts.day = static_cast<SimDay>(r.i64());
    for (int t = 0; t < traffic::kSignalingEventTypeCount; ++t) {
      counts.total[t] = r.u64();
      counts.failures[t] = r.u64();
    }
    ds.signaling.restore_day(counts);
  }

  const std::uint64_t n_feeds = r.u64();
  for (std::uint64_t i = 0; i < n_feeds; ++i) {
    telemetry::FeedQuality& f = ds.quality.feed(r.bytes());
    f.expected_records = r.u64();
    f.observed_records = r.u64();
    f.quarantined_records = r.u64();
    f.duplicate_records = r.u64();
    const std::uint64_t n_days = r.u64();
    for (std::uint64_t d = 0; d < n_days; ++d) {
      const auto day = static_cast<SimDay>(r.i64());
      const std::uint64_t expected = r.u64();
      const std::uint64_t observed = r.u64();
      f.days[day] = {expected, observed};
    }
  }
}

}  // namespace cellscope::sim
