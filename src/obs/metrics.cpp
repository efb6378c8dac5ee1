#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace aqua::obs {

void HistogramBins::merge(const HistogramBins& other) {
  for (std::size_t bin = 0; bin < Histogram::kBinCount; ++bin) bins[bin] += other.bins[bin];
  count += other.count;
  sum_us += other.sum_us;
  max_us = std::max(max_us, other.max_us);
}

std::int64_t HistogramBins::quantile(double q) const {
  const std::uint64_t n = count;
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest value with cumulative count >= ceil(q * n).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  // A rank at (or past — p999 with n < 1000 rounds up to rank n) the last
  // sample is the recorded maximum, exactly, whatever bin it lives in.
  if (rank >= n) return max_us;
  std::uint64_t cumulative = 0;
  for (std::size_t bin = 0; bin < Histogram::kBinCount; ++bin) {
    cumulative += bins[bin];
    if (cumulative < rank) continue;
    if (bin == Histogram::kOverflowBin) return max_us;
    // The ranked sample lives in this bin, so neither its upper bound nor
    // the largest value recorded can under-report it.
    return std::min(Histogram::bin_upper_bound(bin), max_us);
  }
  // Concurrent writers can leave count ahead of the bin sums for a
  // moment; fall back to the largest value seen.
  return max_us;
}

std::int64_t Histogram::quantile(double q) const { return bins_of(*this).quantile(q); }

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) out.emplace_back(name, counter->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) out.emplace_back(name, gauge->value());
  return out;
}

std::vector<HistogramSnapshot> MetricsRegistry::histograms() const {
  const std::scoped_lock lock(mutex_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) out.push_back(snapshot(name, *histogram));
  return out;
}

HistogramBins bins_of(const Histogram& h) {
  HistogramBins out;
  for (std::size_t bin = 0; bin < Histogram::kBinCount; ++bin) out.bins[bin] = h.bin_count(bin);
  out.count = h.count();
  out.sum_us = h.sum();
  out.max_us = h.max_value();
  return out;
}

HistogramSnapshot snapshot(const std::string& name, const Histogram& h) {
  // One bin copy feeds every derived field, so the snapshot is internally
  // consistent even while writers keep recording.
  return snapshot(name, bins_of(h));
}

HistogramSnapshot snapshot(const std::string& name, const HistogramBins& bins) {
  HistogramSnapshot snap;
  snap.name = name;
  snap.count = bins.count;
  snap.sum_us = bins.sum_us;
  snap.mean_us = bins.mean();
  snap.p50_us = bins.quantile(0.50);
  snap.p90_us = bins.quantile(0.90);
  snap.p99_us = bins.quantile(0.99);
  snap.p999_us = bins.quantile(0.999);
  snap.max_us = bins.max_us;
  snap.bins = bins;
  return snap;
}

}  // namespace aqua::obs
