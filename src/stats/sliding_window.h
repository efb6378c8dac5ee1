// Fixed-capacity sliding window of recent samples.
//
// The paper's gateway information repository keeps the service times and
// queuing delays of "the most recent l requests serviced by that replica"
// (§5.2). SlidingWindow is that structure: a ring buffer that overwrites
// the oldest sample once l samples have been recorded.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.h"

namespace aqua::stats {

template <typename T>
class SlidingWindow {
 public:
  /// Window of the `capacity` most recent samples; capacity must be >= 1.
  explicit SlidingWindow(std::size_t capacity) : buffer_(capacity) {
    AQUA_REQUIRE(capacity >= 1, "sliding window capacity must be >= 1");
  }

  /// Record a sample, evicting the oldest if the window is full.
  void push(const T& value) {
    buffer_[next_] = value;
    next_ = (next_ + 1) % buffer_.size();
    if (size_ < buffer_.size()) ++size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buffer_.size(); }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == buffer_.size(); }

  /// Samples in age order (oldest first). Copies: the window is tiny
  /// (l <= a few dozen) and callers feed the result straight into a pmf.
  [[nodiscard]] std::vector<T> samples() const {
    std::vector<T> out;
    copy_to(out);
    return out;
  }

  /// samples() into `out`, replacing its contents; allocates only when
  /// `out`'s capacity is below size().
  void copy_to(std::vector<T>& out) const {
    out.clear();
    out.reserve(size_);
    const std::size_t start = full() ? next_ : 0;
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(buffer_[(start + i) % buffer_.size()]);
    }
  }

  /// Most recent sample; requires a non-empty window.
  [[nodiscard]] const T& latest() const {
    AQUA_REQUIRE(!empty(), "latest() on an empty window");
    return buffer_[(next_ + buffer_.size() - 1) % buffer_.size()];
  }

  /// Oldest retained sample; requires a non-empty window.
  [[nodiscard]] const T& oldest() const {
    AQUA_REQUIRE(!empty(), "oldest() on an empty window");
    return buffer_[full() ? next_ : 0];
  }

  void clear() {
    size_ = 0;
    next_ = 0;
  }

 private:
  std::vector<T> buffer_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aqua::stats
