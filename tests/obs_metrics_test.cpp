// Histogram bin/quantile math and registry interning semantics.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <vector>

namespace aqua::obs {
namespace {

TEST(HistogramBins, UpperBoundsAreLogSpacedDigits) {
  EXPECT_EQ(Histogram::bin_upper_bound(0), 1);
  EXPECT_EQ(Histogram::bin_upper_bound(8), 9);
  EXPECT_EQ(Histogram::bin_upper_bound(9), 10);
  EXPECT_EQ(Histogram::bin_upper_bound(10), 20);
  EXPECT_EQ(Histogram::bin_upper_bound(17), 90);
  EXPECT_EQ(Histogram::bin_upper_bound(18), 100);
  // Last regular bin: 9 x 10^7 us = 90 s.
  EXPECT_EQ(Histogram::bin_upper_bound(Histogram::kOverflowBin - 1), 90'000'000);
}

TEST(HistogramBins, IndexMatchesUpperBound) {
  // Every regular bin's upper bound maps back into that bin, and the
  // value one past it maps into the next.
  for (std::size_t bin = 0; bin < Histogram::kOverflowBin; ++bin) {
    const std::int64_t bound = Histogram::bin_upper_bound(bin);
    EXPECT_EQ(Histogram::bin_index(bound), bin) << "bound " << bound;
    EXPECT_EQ(Histogram::bin_index(bound + 1), bin + 1) << "bound " << bound;
  }
  EXPECT_EQ(Histogram::bin_index(0), 0u);
  EXPECT_EQ(Histogram::bin_index(-5), 0u);
  EXPECT_EQ(Histogram::bin_index(90'000'001), Histogram::kOverflowBin);
}

TEST(HistogramQuantile, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.max_value(), 0);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.quantile(0.999), 0);
}

TEST(HistogramQuantile, SingleSampleOwnsEveryQuantile) {
  Histogram h;
  h.record(usec(137));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 137);
  EXPECT_EQ(h.max_value(), 137);
  // Every rank is at-or-past the single sample, so every quantile is the
  // exact recorded value — not the owning bin's 200 us upper bound.
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 137) << "q=" << q;
  }
}

TEST(HistogramQuantile, NearestRankAgainstExactDistribution) {
  Histogram h;
  // 100 samples: 50 x 3us, 40 x 70us, 10 x 4000us.
  for (int i = 0; i < 50; ++i) h.record_value(3);
  for (int i = 0; i < 40; ++i) h.record_value(70);
  for (int i = 0; i < 10; ++i) h.record_value(4000);
  EXPECT_EQ(h.count(), 100u);
  // Rank 50 is the LAST sample of the 3us bin (cumulative == rank); the
  // bin's upper bound is still the answer, since the sample may sit on it.
  EXPECT_EQ(h.quantile(0.5), 3);
  EXPECT_EQ(h.quantile(0.51), 70);  // rank 51 crosses into the 70us bin
  EXPECT_EQ(h.quantile(0.9), 70);   // rank 90: last sample of the 70us bin
  EXPECT_EQ(h.quantile(0.91), 4000);
  EXPECT_EQ(h.quantile(1.0), 4000);
}

TEST(HistogramQuantile, RankPastLastSampleReportsExactMax) {
  Histogram h;
  // p999 with fewer than 1000 samples: ceil(0.999 * n) == n for every
  // n < 1000, so the reported p999 must be the exact recorded maximum
  // instead of the max's bin bound.
  for (int i = 0; i < 499; ++i) h.record_value(10);
  h.record_value(8521);  // 9000us bin; bound would overstate by ~6%
  EXPECT_EQ(h.count(), 500u);
  EXPECT_EQ(h.quantile(0.999), 8521);
  EXPECT_EQ(h.quantile(1.0), 8521);
  // Interior ranks still use bin arithmetic.
  EXPECT_EQ(h.quantile(0.5), 10);
}

TEST(HistogramQuantile, RankOnBinBoundaryReportsCappedUpperBound) {
  Histogram h;
  // 10 samples at 45us (50us bin), 10 at 450us (500us bin). Rank 10 is
  // the last sample of the 50us bin; a sample there may equal 50, so the
  // previous bin's 40us bound would under-report. The upper bound it is.
  for (int i = 0; i < 10; ++i) h.record_value(45);
  for (int i = 0; i < 10; ++i) h.record_value(450);
  EXPECT_EQ(h.quantile(0.5), 50);
  // One rank past the boundary lands in the 500us bin, whose bound is
  // capped at the 450us maximum actually recorded.
  EXPECT_EQ(h.quantile(0.55), 450);
  // A boundary rank in bin 0 reports that bin's 1us bound, not 0.
  Histogram low;
  for (int i = 0; i < 4; ++i) low.record_value(1);
  for (int i = 0; i < 4; ++i) low.record_value(7);
  EXPECT_EQ(low.quantile(0.5), 1);
}

/// Exact nearest-rank quantile of `values` (sorted copy).
std::int64_t exact_quantile(std::vector<std::int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

constexpr std::array<double, 9> kQuantiles = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};

TEST(HistogramQuantileProperty, NeverBelowExactNearestRank) {
  std::mt19937_64 rng(20260417);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    std::vector<std::int64_t> values(n);
    Histogram h;
    for (auto& v : values) {
      // Log-uniform over 1us..10s, so every decade sees boundary ranks.
      v = static_cast<std::int64_t>(std::pow(10.0, std::uniform_real_distribution<>(0, 7)(rng)));
      h.record_value(v);
    }
    for (double q : kQuantiles) {
      const std::int64_t exact = exact_quantile(values, q);
      EXPECT_GE(h.quantile(q), exact) << "trial " << trial << " q " << q;
      // ... and within the owning bin's bound.
      EXPECT_LE(h.quantile(q), Histogram::bin_upper_bound(Histogram::bin_index(exact)))
          << "trial " << trial << " q " << q;
    }
  }
}

TEST(HistogramQuantileProperty, DominatedStreamNeverReportsMore) {
  // Paired samples with x_i <= y_i for every i (service time <= end to
  // end, per trace): every quantile of X must be <= that of Y.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    Histogram x;
    Histogram y;
    for (std::size_t i = 0; i < n; ++i) {
      const auto xi =
          static_cast<std::int64_t>(std::pow(10.0, std::uniform_real_distribution<>(0, 7)(rng)));
      // Often equal, otherwise up to twice as large.
      const std::int64_t extra =
          rng() % 3 == 0 ? 0 : static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(xi + 1));
      x.record_value(xi);
      y.record_value(xi + extra);
    }
    for (double q : kQuantiles) {
      EXPECT_LE(x.quantile(q), y.quantile(q)) << "trial " << trial << " q " << q;
    }
  }
}

TEST(HistogramQuantileProperty, PairedServiceAndEndToEndKeepTheirOrder) {
  // The inversion the old lower-edge rule produced: service <= e2e for
  // every trace, yet it reported p99 service 7000us > p99 e2e 6000us
  // while the exact p99 values are 6500us and 6600us.
  Histogram service;
  Histogram end_to_end;
  for (int i = 0; i < 98; ++i) {
    service.record_value(100);
    end_to_end.record_value(6000);
  }
  service.record_value(6500);
  end_to_end.record_value(6600);
  service.record_value(6500);
  end_to_end.record_value(90'000);
  EXPECT_LE(service.quantile(0.99), end_to_end.quantile(0.99));
  EXPECT_GE(service.quantile(0.99), 6500);
  EXPECT_GE(end_to_end.quantile(0.99), 6600);
}

TEST(HistogramQuantile, OverflowBinReportsExactMaximum) {
  Histogram h;
  h.record_value(5);
  h.record_value(123'456'789);  // past the last 90s bin
  EXPECT_EQ(h.bin_count(Histogram::kOverflowBin), 1u);
  // The p99 rank lands in the overflow bin; a made-up bound would be
  // misleading, so the exact maximum is reported instead.
  EXPECT_EQ(h.quantile(0.99), 123'456'789);
  EXPECT_EQ(h.max_value(), 123'456'789);
}

TEST(HistogramQuantile, SumAndMeanTrackRecordedValues) {
  Histogram h;
  h.record(msec(2));
  h.record(msec(4));
  EXPECT_EQ(h.sum(), 6000);
  EXPECT_DOUBLE_EQ(h.mean(), 3000.0);
}

TEST(MetricsRegistry, InternsByNameWithinEachKind) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Same name, different kind: distinct namespaces.
  registry.gauge("x").set(2.5);
  registry.histogram("x").record_value(7);
  EXPECT_EQ(registry.counter("x").value(), 3u);
  EXPECT_DOUBLE_EQ(registry.gauge("x").value(), 2.5);
  EXPECT_EQ(registry.histogram("x").count(), 1u);
}

TEST(MetricsRegistry, SnapshotsAreSortedByName) {
  MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(2);
  registry.histogram("mid").record_value(50);
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[0].second, 2u);
  EXPECT_EQ(counters[1].first, "zeta");
  const auto histograms = registry.histograms();
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].name, "mid");
  EXPECT_EQ(histograms[0].count, 1u);
  EXPECT_EQ(histograms[0].p50_us, 50);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

}  // namespace
}  // namespace aqua::obs
