#include "sim/simulator.h"

namespace aqua::sim {

bool EventHandle::cancel() {
  return simulator_ != nullptr && simulator_->cancel(slot_, generation_);
}

bool EventHandle::pending() const {
  return simulator_ != nullptr && simulator_->pending(slot_, generation_);
}

Simulator::~Simulator() {
  for (const auto& chunk : chunks_) {
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
      Slot& slot = chunk[i];
      if (slot.ops != nullptr) std::exchange(slot.ops, nullptr)->destroy(slot.storage);
    }
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ == kNoSlot) {
    AQUA_REQUIRE(chunks_.size() < (kNoSlot >> kChunkShift), "too many pending events");
    const auto base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Lowest index first, so a fresh table fills in order.
    for (std::uint32_t i = kChunkSlots; i-- > 0;) push_free(base + i);
  }
  const std::uint32_t index = free_head_;
  free_head_ = slot_at(index).next_free;
  return index;
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slot_at(index);
  std::exchange(slot.ops, nullptr)->destroy(slot.storage);
  push_free(index);
}

EventHandle Simulator::enqueue(TimePoint at, std::uint32_t index) {
  const std::uint64_t generation = ++next_seq_;  // never 0: 0 marks a free slot
  slot_at(index).generation = generation;
  queue_.push(Entry{at, generation, index});
  ++live_count_;
  return EventHandle{this, index, generation};
}

bool Simulator::cancel(std::uint32_t index, std::uint64_t generation) {
  if (!pending(index, generation)) return false;
  slot_at(index).generation = 0;
  --live_count_;
  // Release captured resources promptly; the heap entry goes stale and is
  // skipped when it reaches the front.
  release_slot(index);
  return true;
}

void Simulator::drop_cancelled_front() {
  while (!queue_.empty() && slot_at(queue_.top().slot).generation != queue_.top().seq) {
    queue_.pop();
  }
}

bool Simulator::execute_next() {
  if (budget_.has_value() && *budget_ == 0) return false;
  drop_cancelled_front();
  if (queue_.empty()) return false;
  if (budget_.has_value()) --*budget_;
  const Entry entry = queue_.top();
  queue_.pop();
  --live_count_;
  AQUA_ASSERT(entry.at >= now_);
  now_ = entry.at;
  Slot& slot = slot_at(entry.slot);
  slot.generation = 0;  // fired: its handles are inert from here on
  ++executed_;
  // The slot stays off the free list while its callable runs, and chunks
  // never move, so events scheduled by the callback cannot disturb it. The
  // guard frees it afterwards, also when the callback throws.
  struct Release {
    Simulator& simulator;
    std::uint32_t index;
    ~Release() { simulator.release_slot(index); }
  } release{*this, entry.slot};
  slot.ops->call(slot.storage);
  return true;
}

bool Simulator::step() {
  stopped_ = false;
  return execute_next();
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && execute_next()) {
  }
}

void Simulator::run_until(TimePoint until) {
  AQUA_REQUIRE(until >= now_, "cannot run the clock backwards");
  stopped_ = false;
  while (!stopped_) {
    drop_cancelled_front();
    if (queue_.empty() || queue_.top().at > until) break;
    if (!execute_next()) break;  // event budget exhausted
  }
  if (!stopped_ && now_ < until) now_ = until;
}

void Simulator::run_for(Duration duration) {
  AQUA_REQUIRE(duration >= Duration::zero(), "run_for duration must be non-negative");
  run_until(now_ + duration);
}

}  // namespace aqua::sim
