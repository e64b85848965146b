#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace spider::sim {

EventQueue::EventQueue()
    : tails_(new std::uint32_t[kWheelSlots]),
      shared_(new detail::QueueShared(this)) {
  std::fill_n(tails_.get(), kWheelSlots, kNil);
}

EventQueue::~EventQueue() {
  clear();
  shared_->queue = nullptr;
  shared_->release();
}

EventHandle EventQueue::push(Time when, Callback&& cb) {
  ++handles_allocated_;
  const std::uint64_t seq = next_seq_;  // stamped by push_entry
  EventHandle handle;
  handle.payload_ = push_entry(when, std::move(cb));
  handle.seq_ = seq;
  handle.shared_ = shared_;
  shared_->add_ref();
  return handle;
}

void EventQueue::release_payload(std::uint32_t index) const {
  Payload& p = payloads_[index];
  p.cb = Callback{};
  p.seq = kStaleSeq;
  p.cancelled = false;
  free_payloads_.push_back(index);
}

std::uint32_t EventQueue::wheel_front_slot() const {
  assert(wheel_size_ != 0);
  // Scan [start, kWheelSlots) first, then wrap to [0, start): every wheel
  // entry lies within one span of base_, so ring order from base_'s slot
  // is time order.
  const std::uint32_t start = slot_of(base_);
  std::uint32_t word = start >> 6;
  const std::uint64_t bits =
      occupied_[word] & (~std::uint64_t{0} << (start & 63));
  if (bits != 0) {
    return (word << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
  }
  // Next non-empty word after `word`, via the summary level; the second
  // round (from word 0) is the wrap-around.
  for (std::uint32_t from = word + 1;; from = 0) {
    for (std::uint32_t s = from >> 6; s < kSummaryWords; ++s) {
      std::uint64_t sum = summary_[s];
      if (s == from >> 6) sum &= ~std::uint64_t{0} << (from & 63);
      if (sum == 0) continue;
      word = (s << 6) | static_cast<std::uint32_t>(std::countr_zero(sum));
      return (word << 6) |
             static_cast<std::uint32_t>(std::countr_zero(occupied_[word]));
    }
  }
}

void EventQueue::unlink_front(const Front& f) const {
  if (f.slot == kNil) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    return;
  }
  std::uint32_t& tail = tails_[f.slot];
  if (tail == f.payload) {  // the head was the ring's only entry
    tail = kNil;
    occupied_[f.slot >> 6] &= ~(std::uint64_t{1} << (f.slot & 63));
    if (occupied_[f.slot >> 6] == 0) {
      summary_[f.slot >> 12] &= ~(std::uint64_t{1} << ((f.slot >> 6) & 63));
    }
  } else {
    payloads_[tail].next = payloads_[f.payload].next;
  }
  --wheel_size_;
}

EventQueue::Callback EventQueue::take_front(const Front& f) {
  // Detach the callback before running: it may push new events (which
  // would reallocate the slab) or cancel anything, including itself.
  unlink_front(f);
  Callback cb = std::move(payloads_[f.payload].cb);
  release_payload(f.payload);
  // Pops come in (when, seq) order, so every wheel entry is at or after
  // f.when and the window can slide up to it. A pop from before base_ (a
  // direct push into the past) leaves base_ alone.
  if (f.when > base_) base_ = f.when;
  ++popped_;
  return cb;
}

void EventQueue::compact() {
  // Far tier, two passes: disengage dead payloads first (marking entries
  // with a sentinel), then sweep — remove_if predicates must stay
  // side-effect-free.
  constexpr std::uint32_t kDeadEntry = ~std::uint32_t{0};
  for (Entry& e : heap_) {
    if (payloads_[e.payload].cancelled) {
      release_payload(e.payload);
      e.payload = kDeadEntry;
    }
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [](const Entry& e) { return e.payload == kDeadEntry; }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  // Near tier: rebuild each occupied slot's ring from its live entries,
  // keeping their (seq) order.
  for (std::uint32_t word = 0; word < kWords; ++word) {
    for (std::uint64_t bits = occupied_[word]; bits != 0; bits &= bits - 1) {
      const std::uint32_t slot =
          (word << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
      const std::uint32_t last = tails_[slot];
      std::uint32_t index = payloads_[last].next;
      tails_[slot] = kNil;
      occupied_[word] &= ~(std::uint64_t{1} << (slot & 63));
      for (bool more = true; more; ) {
        const std::uint32_t next = payloads_[index].next;
        more = index != last;
        --wheel_size_;
        if (payloads_[index].cancelled) {
          release_payload(index);
        } else {
          wheel_append(slot, index);
        }
        index = next;
      }
    }
    if (occupied_[word] == 0) {
      summary_[word >> 6] &= ~(std::uint64_t{1} << (word & 63));
    }
  }
  shared_->cancelled_queued = 0;
  ++compactions_;
}

Time EventQueue::pop_and_run() {
  Front f;
  [[maybe_unused]] const bool found = live_front(f);
  assert(found);
  Callback cb = take_front(f);
  cb();
  return f.when;
}

bool EventQueue::pop_and_run_until(Time deadline, Time& clock) {
  Front f;
  if (!live_front(f) || f.when > deadline) return false;
  Callback cb = take_front(f);
  clock = f.when;  // advance the caller's clock before dispatch
  cb();
  return true;
}

void EventQueue::clear() {
  heap_.clear();
  payloads_.clear();
  free_payloads_.clear();
  std::fill_n(tails_.get(), kWheelSlots, kNil);
  occupied_.fill(0);
  summary_.fill(0);
  wheel_size_ = 0;
  shared_->cancelled_queued = 0;
}

PerfCounters EventQueue::perf() const {
  PerfCounters p;
  p.events_popped = popped_;
  p.events_cancelled = shared_->cancelled_total;
  p.heap_peak = heap_peak_;
  p.compactions = compactions_;
  p.handles_allocated = handles_allocated_;
  p.callbacks_heap = callbacks_heap_;
  return p;
}

}  // namespace spider::sim
