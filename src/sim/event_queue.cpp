#include "sim/event_queue.h"

#include <utility>

#include "common/error.h"

namespace vcmr::sim {

void EventQueue::place(std::size_t i, const Key& k) {
  heap_[i] = k;
  slots_[k.slot].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i, Key k) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(k, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, k);
}

void EventQueue::sift_down(std::size_t i, Key k) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], k)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, k);
}

void EventQueue::fill(std::size_t i, Key k) {
  if (i > 0 && before(k, heap_[(i - 1) / 2])) {
    sift_up(i, k);
  } else {
    sift_down(i, k);
  }
}

void EventQueue::remove_at(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) fill(i, last);
}

EventFn EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  free_.push_back(slot);
  return std::exchange(s.fn, nullptr);
}

EventHandle EventQueue::schedule(SimTime at, EventFn fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const Key k{at, next_seq_++, slot};
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.at = at;
  s.seq = k.seq;
  heap_.push_back(k);
  sift_up(heap_.size() - 1, k);
  return EventHandle(slot, k.seq);
}

void EventQueue::cancel(EventHandle h) {
  if (!h.valid() || h.slot_ >= slots_.size()) return;
  const Slot& s = slots_[h.slot_];
  if (s.seq != h.seq_) return;  // fired, cancelled, or slot reused
  remove_at(s.pos);
  // The returned callback dies only once the queue is consistent again, so
  // captured state may schedule or cancel from its destructor.
  release(h.slot_);
}

EventHandle EventQueue::reschedule(EventHandle h, SimTime at) {
  require(h.valid() && h.slot_ < slots_.size() &&
              slots_[h.slot_].seq == h.seq_,
          "EventQueue::reschedule: the event already fired or was cancelled");
  Slot& s = slots_[h.slot_];
  // cancel() would free the slot and schedule() take it straight back, so
  // the event keeps its slot and only draws the next sequence number.
  const Key k{at, next_seq_++, h.slot_};
  s.at = at;
  s.seq = k.seq;
  // The new seq is the largest yet, so k sorts before the entry's heap key
  // only when it is earlier. A later k waits in the slot: the stale key
  // sorts no later, and settle_top() re-keys it if it surfaces.
  if (before(k, heap_[s.pos])) fill(s.pos, k);
  return EventHandle(k.slot, k.seq);
}

void EventQueue::settle_top() {
  for (;;) {
    const std::uint32_t slot = heap_.front().slot;
    const Slot& s = slots_[slot];
    if (heap_.front().seq == s.seq) return;
    sift_down(0, Key{s.at, s.seq, slot});
  }
}

SimTime EventQueue::pop_and_run() {
  require(!heap_.empty(), "EventQueue::pop_and_run on empty queue");
  settle_top();
  const Key top = heap_.front();
  remove_at(0);
  // The slot is free before the callback runs, so the callback may
  // schedule (reusing it) or cancel anything, itself included, safely.
  const EventFn fn = release(top.slot);
  fn();
  return top.at;
}

}  // namespace vcmr::sim
