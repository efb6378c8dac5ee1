// Low-overhead metrics primitives: counters, gauges, and fixed-bin
// latency histograms behind a name-keyed registry.
//
// Design discipline (mirrors Log::enabled): components hold a raw
// `Telemetry*` that may be null, and resolve metric pointers ONCE at
// construction. The steady-state cost of an instrumented site is then
//
//   if (counter_ != nullptr) counter_->add();   // one branch + one
//                                               // relaxed atomic add
//
// and exactly one branch when telemetry is disabled. Registry lookups
// (map + mutex) happen only at wiring time, never per request.
//
// All primitives are safe for concurrent writers (threaded runtime) and
// concurrent readers (exporter snapshots); readers may observe a
// slightly torn view across *different* metrics mid-run, which is fine
// for monitoring output.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"

namespace aqua::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, replica count, ...).
class Gauge {
 public:
  void set(double value) { bits_.store(encode(value), std::memory_order_relaxed); }

  [[nodiscard]] double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t encode(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    return bits;
  }
  static double decode(std::uint64_t bits) {
    double v = 0.0;
    __builtin_memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::atomic<std::uint64_t> bits_{encode(0.0)};
};

/// Fixed-bin log-spaced latency histogram with nearest-rank quantiles.
///
/// Bin upper bounds are {1..9} x 10^d microseconds for d = 0..7, i.e.
/// 1 us, 2 us, ... 9 us, 10 us, 20 us, ... up to 90'000'000 us (90 s),
/// plus one overflow bin. Recording is a relaxed atomic increment on the
/// owning bin plus count/sum/max bookkeeping — no allocation, no lock.
/// Quantiles walk the cumulative bin counts and report the matched bin's
/// upper bound capped at the recorded maximum (<= one bin width of error,
/// never below the exact nearest-rank value, and monotone: a stream whose
/// every sample is <= its partner in another never reports a larger
/// quantile). A rank at or past the last sample (e.g. p999 with n < 1000)
/// and a rank in the overflow bin report the exact recorded maximum.
class Histogram {
 public:
  static constexpr std::size_t kBinsPerDecade = 9;
  static constexpr std::size_t kDecades = 8;
  static constexpr std::size_t kOverflowBin = kBinsPerDecade * kDecades;
  static constexpr std::size_t kBinCount = kOverflowBin + 1;

  /// Upper bound (inclusive, in us) of a regular bin.
  [[nodiscard]] static constexpr std::int64_t bin_upper_bound(std::size_t bin) {
    std::int64_t scale = 1;
    for (std::size_t d = 0; d < bin / kBinsPerDecade; ++d) scale *= 10;
    return static_cast<std::int64_t>(bin % kBinsPerDecade + 1) * scale;
  }

  /// Bin owning a microsecond value (values <= 0 land in bin 0).
  [[nodiscard]] static constexpr std::size_t bin_index(std::int64_t us) {
    if (us <= 1) return 0;
    std::size_t decade = 0;
    std::int64_t scale = 1;
    while (decade + 1 < kDecades && us > 9 * scale) {
      scale *= 10;
      ++decade;
    }
    if (us > 9 * scale) return kOverflowBin;
    const std::int64_t digit = (us + scale - 1) / scale;  // ceil(us / scale)
    return decade * kBinsPerDecade + static_cast<std::size_t>(digit) - 1;
  }

  void record(Duration d) { record_value(count_us(d)); }

  void record_value(std::int64_t us) {
    bins_[bin_index(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(us, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (us > seen &&
           !max_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sum of recorded values in microseconds.
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Largest recorded value (0 when empty).
  [[nodiscard]] std::int64_t max_value() const {
    const std::int64_t m = max_.load(std::memory_order_relaxed);
    return m < 0 ? 0 : m;
  }

  [[nodiscard]] std::uint64_t bin_count(std::size_t bin) const {
    return bins_[bin].load(std::memory_order_relaxed);
  }

  /// Nearest-rank quantile in microseconds, q in [0, 1]. Empty -> 0.
  [[nodiscard]] std::int64_t quantile(double q) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBinCount> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{-1};
};

/// Plain bin-wise histogram state: the mergeable, serializable form of a
/// Histogram, and what fleet scrapes travel in (obs/fleet.h). Two nodes'
/// bins summed bin-wise hold exactly the counts one histogram would hold
/// had it been fed the union stream (binning is deterministic), so every
/// quantile of a merge agrees with the union histogram bin-for-bin; the
/// only non-bin state, max_us, merges exactly as max-of-maxes.
struct HistogramBins {
  std::array<std::uint64_t, Histogram::kBinCount> bins{};
  std::uint64_t count = 0;
  std::int64_t sum_us = 0;
  std::int64_t max_us = 0;

  /// Fold `other` into this (bin-wise sums, max-of-maxes).
  void merge(const HistogramBins& other);

  /// Same nearest-rank algorithm as Histogram::quantile — one
  /// implementation, so merged snapshots and live histograms can never
  /// disagree on what a quantile means.
  [[nodiscard]] std::int64_t quantile(double q) const;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_us) / static_cast<double>(count);
  }
};

/// Point-in-time copy of one histogram, for exporters. Carries the raw
/// bins alongside the derived quantiles so a scraper can merge snapshots
/// bin-wise instead of averaging quantiles (which is meaningless).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t sum_us = 0;
  double mean_us = 0.0;
  std::int64_t p50_us = 0;
  std::int64_t p90_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t p999_us = 0;
  std::int64_t max_us = 0;
  HistogramBins bins;
};

/// Name-keyed home for metric instances. Lookup interns the metric on
/// first use and returns a reference that stays valid for the registry's
/// lifetime — callers cache it and never come back on the hot path.
/// Counters, gauges, and histograms live in separate namespaces.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sorted-by-name snapshots for exporters.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<HistogramSnapshot> histograms() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Snapshot helper shared by registry and exporters.
[[nodiscard]] HistogramSnapshot snapshot(const std::string& name, const Histogram& h);

/// Point-in-time bin copy of a live histogram (relaxed loads; readers may
/// observe count ahead of the bin sums mid-record, which the quantile
/// walk tolerates).
[[nodiscard]] HistogramBins bins_of(const Histogram& h);

/// Snapshot from already-collected (typically merged) bins.
[[nodiscard]] HistogramSnapshot snapshot(const std::string& name, const HistogramBins& bins);

}  // namespace aqua::obs
