#include "measure.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return nearest_rank(std::move(samples), 0.5); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

SpanLog::SpanLog(std::size_t capacity)
    : slots_(std::make_unique<BenchSpan[]>(capacity)), capacity_(capacity) {}

void SpanLog::record(const BenchSpan& span) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot < capacity_) {
    slots_[slot] = span;
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t SpanLog::kept() const {
  return std::min(next_.load(std::memory_order_relaxed), capacity_);
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,run,trace_id,span_id,parent_id,start_ns,end_ns\n";
  const std::size_t n = kept();
  for (std::size_t i = 0; i < n; ++i) {
    const BenchSpan& s = slots_[i];
    out << s.name << ',' << s.run << ',' << s.trace_id << ',' << s.span_id << ','
        << s.parent_id << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
