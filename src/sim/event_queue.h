#pragma once
// Cancellable priority event queue for the discrete-event engine.
//
// Events at equal simulated times fire in insertion order (a monotonically
// increasing sequence number breaks ties), which is what makes simulations
// reproducible: no behaviour may depend on heap internals.
//
// Storage is a binary min-heap of (time, seq) keys over a slot array that
// owns the callbacks. Every slot knows its entry's heap position, so
// cancel() removes the entry outright and destroys its callback at once:
// the heap holds exactly the live events, never a dead one. A slot is
// recycled as soon as its event fires or is cancelled; handles carry
// (slot, seq), and the sequence check keeps a stale handle from touching
// the slot's next occupant. reschedule() moves a pending entry in place and
// keeps its callback.
//
// A slot also holds its event's true (time, seq). A move to a later time
// only rewrites those and leaves the entry's heap key behind, so the key
// may be stale, but never later than the true one. next_time() and
// pop_and_run() re-key a stale top with one sift_down until the top is
// current; that top is then the true earliest event, because every other
// key is no later than its own event. A serve timeout re-armed on every
// reply therefore costs a store, and at most one sift when it surfaces,
// instead of a sift per move. A move to an earlier time sifts at once.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace vcmr::sim {

using EventFn = std::function<void()>;

/// Handle to a scheduled event; used to cancel it. Default-constructed
/// handles are inert, and so is a handle whose event fired or was cancelled.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

  friend bool operator==(const EventHandle&, const EventHandle&) = default;

 private:
  friend class EventQueue;
  EventHandle(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class EventQueue {
 public:
  /// Schedules fn at absolute time `at`.
  EventHandle schedule(SimTime at, EventFn fn);

  /// Cancels a pending event; harmless if it already fired or was cancelled.
  void cancel(EventHandle h);

  /// Moves a pending event to time `at`, keeping its callback. The event
  /// takes the slot and sequence number cancel-then-schedule would give
  /// it, so firing order and handles are the same as that pair's; only the
  /// callback is not rebuilt. A move no earlier than the entry's heap key
  /// leaves the key stale (see the file comment). Throws vcmr::Error when
  /// `h` is not pending.
  EventHandle reschedule(EventHandle h, SimTime at);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; infinity when empty. Re-keys a
  /// stale top first.
  SimTime next_time() {
    if (heap_.empty()) return SimTime::infinity();
    settle_top();
    return heap_.front().at;
  }

  /// Pops and runs the earliest event. Requires !empty().
  /// Returns the time the event fired at.
  SimTime pop_and_run();

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Slot {
    EventFn fn;
    SimTime at;             ///< the event's true time
    std::uint64_t seq = 0;  ///< the event's true seq; 0 while the slot is free
    std::uint32_t pos = 0;  ///< index of this slot's key in heap_
  };

  static bool before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  /// Writes k at heap index i and records the position in its slot.
  void place(std::size_t i, const Key& k);
  /// Moves k from the hole at i towards the root / the leaves.
  void sift_up(std::size_t i, Key k);
  void sift_down(std::size_t i, Key k);
  /// Puts k into the hole at i, sifting whichever way restores the heap.
  void fill(std::size_t i, Key k);
  /// Removes heap_[i], refilling the hole with the last entry.
  void remove_at(std::size_t i);
  /// Re-keys the top from its slot until the top's key is current.
  /// Requires !empty().
  void settle_top();
  /// Frees the slot and hands back its callback for the caller to run or
  /// destroy once the queue is consistent again.
  EventFn release(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< recycled slot indices
  std::uint64_t next_seq_ = 1;
};

}  // namespace vcmr::sim
