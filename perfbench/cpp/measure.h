// Measurement plumbing shared by every workload: exact quantiles from raw
// samples, the result record main() prints, thread-safe sample
// collectors and the in-memory span log of the traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process (the bench's own time
/// axis for spans).
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(Clock::time_point start);

/// Exact nearest-rank quantile: the ceil(q * n)-th smallest sample. Never a
/// binned estimate, so a tail is never under-reported. Empty input -> 0.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double q);

/// Median of a small set of repeated measurements (nearest-rank p50).
[[nodiscard]] double median(std::vector<double> samples);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// 64-bit mix used to derive per-request inputs and sub-seeds from the
/// workload seed.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Raw samples behind the value (0 when it is not a sample statistic).
  std::size_t samples = 0;
};

/// What one run reports: the correctness verdict, the request counts and
/// the named metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false, one line each.
  std::vector<std::string> problems;
  /// Informational lines printed with the metrics.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
  void note(const std::string& line) { notes.push_back(line); }
  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

/// Thread-safe collector of raw durations (microseconds, fractional).
class Samples {
 public:
  void add(double us) {
    std::lock_guard lock(mutex_);
    values_.push_back(us);
  }
  [[nodiscard]] std::vector<double> take() {
    std::lock_guard lock(mutex_);
    return std::move(values_);
  }

 private:
  std::mutex mutex_;
  std::vector<double> values_;
};

/// One bench-side span: a timed call into a layer's public function.
struct BenchSpan {
  const char* name = "";
  std::uint32_t run = 0;         ///< simulator system index (0 for threaded runs)
  std::uint64_t trace_id = 0;    ///< the request's trace id (obs/span.h packing)
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;   ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Fixed-capacity in-memory span log, written out once the run ends.
/// Recording is one atomic increment; spans past capacity are counted, not
/// kept, so a long traced run cannot grow memory without bound.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  [[nodiscard]] std::uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }
  void record(const BenchSpan& span);

  [[nodiscard]] std::size_t kept() const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// CSV: name,run,trace_id,span_id,parent_id,start_ns,end_ns. Returns
  /// false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  std::unique_ptr<BenchSpan[]> slots_;
  std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> ids_{1ULL << 48};  // clear of request-keyed ids
};

}  // namespace perfbench
