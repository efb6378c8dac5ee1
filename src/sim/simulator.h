// Deterministic discrete-event simulation kernel.
//
// The whole AQuA-RS deployment (LAN, gateways, replicas, clients) runs as
// callbacks scheduled on one Simulator. Events at equal timestamps execute
// in scheduling order (FIFO), which — together with seeded Rng streams —
// makes every run bit-reproducible.
//
// Event memory (DESIGN.md §20): each pending event owns one slot of a
// table that grows in fixed chunks and recycles slots through a free list.
// A slot stores the callback in place when it fits kInlineCapacity bytes
// (every closure on the request path does) and a pointer to a heap copy
// otherwise, so the steady state schedules and fires events without
// touching the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/time.h"

namespace aqua::sim {

class Simulator;

/// Cancellation handle for a scheduled event: the event's slot plus the
/// generation the slot was stamped with when the event was scheduled.
/// Default-constructed handles are inert, and so is a handle whose event
/// has fired (from the moment its callback starts) or been cancelled —
/// even once the slot is recycled for a later event, whose generation
/// differs. Ownership rule: the Simulator must outlive every cancel() or
/// pending() call on its handles; destroying or overwriting a handle is
/// always safe. Components therefore hold handles only while they hold a
/// reference to the simulator, which AquaSystem declares first so it is
/// destroyed last.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Idempotent; returns true if the event
  /// was still pending.
  bool cancel();

  /// True if the event has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* simulator, std::uint32_t slot, std::uint64_t generation)
      : simulator_(simulator), slot_(slot), generation_(generation) {}

  Simulator* simulator_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Simulator {
 public:
  /// Closure bytes an event stores in place; larger callables are copied
  /// to the heap. Sized for the largest request-path closure (the
  /// handler's transmit step, which carries a PlannedDispatch).
  static constexpr std::size_t kInlineCapacity = 128;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Destroys the callbacks of events still pending.
  ~Simulator();

  /// Current simulated time. Starts at the epoch (t = 0).
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` (any void() callable) at absolute time `at` (>= now()).
  template <typename F>
  EventHandle schedule_at(TimePoint at, F&& fn);

  /// Schedule `fn` after `delay` (>= 0) from now.
  template <typename F>
  EventHandle schedule_after(Duration delay, F&& fn) {
    AQUA_REQUIRE(delay >= Duration::zero(), "event delay must be non-negative");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Execute the next pending event, advancing the clock to its
  /// timestamp. Returns false when no events remain.
  bool step();

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Run all events with timestamp <= `until`, then advance the clock to
  /// `until` (even if idle). Stops early if stop() is called.
  void run_until(TimePoint until);

  /// run_until(now() + duration).
  void run_for(Duration duration);

  /// Request that the current run()/run_until() return after the event in
  /// progress. Further runs may be issued afterwards.
  void stop() { stopped_ = true; }

  /// Events scheduled and not yet fired or cancelled.
  [[nodiscard]] std::size_t pending_events() const { return live_count_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Guard for randomized fault scenarios: refuse to execute more than
  /// `max_events` further events. run()/run_until() then return as if the
  /// queue had drained; event_budget_exhausted() reports the truncation so
  /// a property test can fail loudly instead of spinning forever on a
  /// pathological generated script.
  void set_event_budget(std::uint64_t max_events) { budget_ = max_events; }
  void clear_event_budget() { budget_.reset(); }
  [[nodiscard]] bool event_budget_exhausted() const {
    return budget_.has_value() && *budget_ == 0;
  }

 private:
  friend class EventHandle;

  /// How to run and destroy the callable a slot holds.
  struct Ops {
    void (*call)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };
  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* storage) { (*std::launder(static_cast<Fn*>(storage)))(); },
      [](void* storage) noexcept { std::launder(static_cast<Fn*>(storage))->~Fn(); }};
  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* storage) { (**std::launder(static_cast<Fn**>(storage)))(); },
      [](void* storage) noexcept { delete *std::launder(static_cast<Fn**>(storage)); }};

  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineCapacity];
    const Ops* ops = nullptr;  // non-null while the slot holds a callable
    /// Generation of the pending event in this slot: its scheduling
    /// sequence number, unique for the simulator's lifetime. 0 while the
    /// slot is free or its event is firing.
    std::uint64_t generation = 0;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSlots = 1U << kChunkShift;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Entry {
    TimePoint at;
    std::uint64_t seq;  // == the slot's generation while the event is pending
    std::uint32_t slot;
  };
  struct EntryOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap on time
      return a.seq > b.seq;                  // FIFO among ties
    }
  };

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename Signature>
  struct IsStdFunction<std::function<Signature>> : std::true_type {};
  template <typename Fn>
  static bool is_null(const Fn& fn) {
    if constexpr (std::is_pointer_v<Fn> || IsStdFunction<Fn>::value) {
      return !fn;
    } else {
      return false;  // closures are always callable
    }
  }

  Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  const Slot& slot_at(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  std::uint32_t acquire_slot();
  void push_free(std::uint32_t index) {
    slot_at(index).next_free = free_head_;
    free_head_ = index;
  }
  /// Destroy the slot's callable and return the slot to the free list.
  void release_slot(std::uint32_t index);
  EventHandle enqueue(TimePoint at, std::uint32_t index);
  bool cancel(std::uint32_t index, std::uint64_t generation);
  [[nodiscard]] bool pending(std::uint32_t index, std::uint64_t generation) const {
    return generation != 0 && slot_at(index).generation == generation;
  }

  /// Fire the front event (skipping cancelled ones). Returns false if the
  /// queue is empty.
  bool execute_next();
  void drop_cancelled_front();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::optional<std::uint64_t> budget_;
  bool stopped_ = false;
  /// Chunks never move once allocated, so a callback keeps its storage
  /// while the events it schedules grow the table.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  std::priority_queue<Entry, std::vector<Entry>, EntryOrder> queue_;
};

template <typename F>
EventHandle Simulator::schedule_at(TimePoint at, F&& fn) {
  using Fn = std::decay_t<F>;
  AQUA_REQUIRE(at >= now_, "cannot schedule an event in the past");
  if constexpr (std::is_null_pointer_v<Fn>) {
    AQUA_REQUIRE(false, "event function must be callable");
    return {};
  } else {
    static_assert(std::is_invocable_r_v<void, Fn&>, "events are void() callables");
    AQUA_REQUIRE(!is_null(fn), "event function must be callable");
    const std::uint32_t index = acquire_slot();
    Slot& slot = slot_at(index);
    try {
      if constexpr (sizeof(Fn) <= kInlineCapacity &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
        slot.ops = &kInlineOps<Fn>;
      } else {
        ::new (static_cast<void*>(slot.storage)) Fn*(new Fn(std::forward<F>(fn)));
        slot.ops = &kHeapOps<Fn>;
      }
    } catch (...) {
      push_free(index);
      throw;
    }
    return enqueue(at, index);
  }
}

}  // namespace aqua::sim
