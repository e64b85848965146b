#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/perf.hpp"
#include "util/inline_function.hpp"
#include "util/time.hpp"

namespace spider::sim {

class EventQueue;

namespace detail {

/// Small block shared by the queue and every outstanding handle: the
/// cancellation tallies plus a back-pointer to the queue that is nulled
/// when the queue dies, so a handle can always tell whether cancelling is
/// still meaningful. Intrusively refcounted (non-atomically — a queue and
/// its handles belong to one simulation, and each simulation runs on one
/// thread; the sweep runner parallelises across whole simulations, never
/// within one).
struct QueueShared {
  EventQueue* queue;                  ///< null once the queue is destroyed
  std::size_t cancelled_queued = 0;   ///< dead entries still queued
  std::uint64_t cancelled_total = 0;  ///< lifetime cancellations
  std::uint32_t refs = 1;             ///< queue + live handles

  explicit QueueShared(EventQueue* q) : queue(q) {}

  void add_ref() { ++refs; }
  void release() {
    if (--refs == 0) delete this;
  }
};

}  // namespace detail

/// Handle for a scheduled event. Holding one allows cancellation; the
/// handle is three words — a pointer to the queue's shared block plus the
/// event's slab index and sequence number — and allocates nothing: the
/// cancellation flag lives in the queue's payload slab, and the sequence
/// number distinguishes this event from any later tenant of the same cell.
///
/// Cancellation is O(1): the entry stays queued but is marked dead, and
/// the queue's live count is decremented immediately — the timer-heavy
/// MAC/DHCP state machines cancel far more timers than ever fire. The
/// queue compacts itself when dead entries dominate, so deeply queued
/// cancellations cannot accumulate unboundedly. Cancelling after the event
/// fired (or after the queue died) is a safe no-op.
///
/// Events that are never cancelled should use the handle-free path
/// (EventQueue::push_nocancel / Simulator::post), which skips handle
/// bookkeeping entirely.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : shared_(other.shared_), payload_(other.payload_), seq_(other.seq_) {
    if (shared_) shared_->add_ref();
  }
  EventHandle(EventHandle&& other) noexcept
      : shared_(std::exchange(other.shared_, nullptr)),
        payload_(other.payload_),
        seq_(other.seq_) {}
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(shared_, other.shared_);
    std::swap(payload_, other.payload_);
    std::swap(seq_, other.seq_);
    return *this;
  }
  ~EventHandle() {
    if (shared_) shared_->release();
  }

  void cancel();
  bool valid() const { return shared_ != nullptr; }
  /// True while the event is scheduled and has been cancelled; false once
  /// the event fired or its entry left the queue.
  bool cancelled() const;

 private:
  friend class EventQueue;
  detail::QueueShared* shared_ = nullptr;
  std::uint32_t payload_ = 0;
  std::uint64_t seq_ = 0;
};

/// Time-ordered queue of callbacks. Ties are broken by insertion order so
/// that same-timestamp events run FIFO — this makes frame delivery and
/// timer interleavings deterministic.
///
/// Layout (see DESIGN.md §8): two tiers in front of one free-listed
/// payload slab that holds the callbacks.
///  - The near tier is a wheel of kWheelSlots one-microsecond slots that
///    covers [base, base + kWheelSpan), where base is the latest timestamp
///    popped so far. Each slot holds one timestamp; its entries form a FIFO
///    ring linked through the slab, and an occupancy bitmap finds the next
///    non-empty slot. Push and pop are O(1).
///  - The far tier is a binary heap of 24-byte POD keys {when, seq, payload
///    index} for everything else: far timers, and pushes earlier than base.
/// Pop takes the smaller (when, seq) of the two fronts, so dispatch order
/// is exactly the order of one heap over every entry. Each callback is
/// relocated exactly once (slab → stack on pop).
class EventQueue {
 public:
  /// Inline-capacity budget for scheduled callbacks. Large enough for every
  /// hot-path capture in the tree (the medium's delivery record is the
  /// biggest at ~32 bytes); callbacks_heap in PerfCounters counts the
  /// fallbacks, so an outgrown capture shows up in --perf-csv rather than
  /// silently re-introducing per-event mallocs.
  static constexpr std::size_t kCallbackCapacity = 64;
  using Callback = util::InlineFunction<kCallbackCapacity>;

  /// Near-tier width: 2^14 one-microsecond slots, i.e. 16.384 ms. Covers
  /// frame deliveries, wired hops, the 10 ms backhaul delay and the
  /// 8–16 ms timers: 80–91% of the pushes the stack makes.
  static constexpr std::uint32_t kWheelSlots = 1u << 14;
  static constexpr Time kWheelSpan{kWheelSlots};

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules a cancellable event. Allocation-free: the handle indexes the
  /// queue's own slab.
  EventHandle push(Time when, Callback&& cb);

  /// Handle-free fast path: schedules an event that can never be cancelled.
  /// Ordering (including FIFO ties) is identical to push() — both draw
  /// from the same sequence counter. Inline so a call site's lambda is
  /// materialised straight into the slab cell instead of bouncing through
  /// a temporary.
  void push_nocancel(Time when, Callback&& cb) {
    push_entry(when, std::move(cb));
  }

  /// True if no live (non-cancelled) event remains.
  bool empty() const {
    Front f;
    return !live_front(f);
  }

  /// Timestamp of the earliest live event; Time::max() when empty.
  Time next_time() const {
    Front f;
    return live_front(f) ? f.when : Time::max();
  }

  /// Pops and runs the earliest live event, returning its timestamp. The
  /// callback is moved out of the slab (never deep-copied) and the entry is
  /// removed before it runs, so callbacks may freely push or cancel.
  /// Precondition: !empty().
  Time pop_and_run();

  /// Fused form of empty()/next_time()/pop_and_run() for dispatch loops:
  /// if a live event exists with timestamp <= deadline, stores its
  /// timestamp in `clock` *before* running it (so the callback observes the
  /// advanced clock) and returns true; otherwise runs nothing and returns
  /// false. One front inspection per event instead of three.
  bool pop_and_run_until(Time deadline, Time& clock);

  void clear();

  /// Number of scheduled, not-yet-cancelled events (exact — cancellation
  /// is accounted for immediately, not when the entry is lazily dropped).
  std::size_t live_size() const {
    return heap_size() - shared_->cancelled_queued;
  }
  /// Physical size of both tiers, including dead (cancelled, undropped)
  /// entries.
  std::size_t heap_size() const { return heap_.size() + wheel_size_; }

  /// Lifetime engine counters (wall-clock fields are left zero; callers
  /// timing a run fill those themselves).
  PerfCounters perf() const;

 private:
  friend class EventHandle;

  /// Far-tier key: trivially copyable so sift operations are plain memmoves.
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t payload;  ///< index into payloads_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// A slab cell never holds a fired/cancelled-and-dropped event: seq is
  /// reset to kStaleSeq on release, so a handle whose seq no longer matches
  /// knows its event is gone regardless of who occupies the cell now.
  static constexpr std::uint64_t kStaleSeq = ~std::uint64_t{0};
  /// An empty slot's tail (and "not a wheel entry" in Front::slot).
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Payload {
    Callback cb;
    std::uint64_t seq = kStaleSeq;  ///< seq of the occupying entry
    bool cancelled = false;
    std::uint32_t next = kNil;  ///< next entry in the same wheel slot's ring
  };
  static_assert(sizeof(Payload) == sizeof(Callback) + 16,
                "the wheel link must fit in the padding after `cancelled`");

  /// A wheel entry's timestamp is implied by its slot: slot = when mod
  /// kWheelSlots, and every wheel entry lies in [base_, base_ + kWheelSpan).
  /// A slot stores only its tail (kNil when empty); the tail's `next` closes
  /// the ring back to the head, so the slot array is 4 bytes per slot.
  static constexpr std::uint32_t kWheelMask = kWheelSlots - 1;
  static constexpr std::uint32_t kWords = kWheelSlots / 64;
  static constexpr std::uint32_t kSummaryWords = (kWords + 63) / 64;
  static std::uint32_t slot_of(Time when) {
    return static_cast<std::uint32_t>(when.count()) & kWheelMask;
  }

  /// The earliest queued entry of both tiers (possibly dead).
  struct Front {
    Time when;
    std::uint32_t payload;
    std::uint32_t slot;  ///< wheel slot, or kNil for the heap top
  };

  /// Below this size a rebuild costs more bookkeeping than the dead
  /// entries it would reclaim; lazy front-dropping handles small queues.
  static constexpr std::size_t kCompactionFloor = 64;

  /// Schedules the callback and returns its slab index (seq stamped).
  std::uint32_t push_entry(Time when, Callback&& cb) {
    if (cb.heap_allocated()) ++callbacks_heap_;
    const std::uint64_t seq = next_seq_++;
    std::uint32_t index;
    if (!free_payloads_.empty()) {
      index = free_payloads_.back();
      free_payloads_.pop_back();
      Payload& p = payloads_[index];
      p.cb = std::move(cb);
      p.seq = seq;
      p.cancelled = false;
    } else {
      index = static_cast<std::uint32_t>(payloads_.size());
      payloads_.push_back(Payload{std::move(cb), seq, false});
    }
    if (when >= base_ && when - base_ < kWheelSpan) {
      wheel_append(slot_of(when), index);
    } else {
      heap_.push_back(Entry{when, seq, index});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    if (heap_size() > heap_peak_) heap_peak_ = heap_size();
    maybe_compact();
    return index;
  }
  void wheel_append(std::uint32_t slot, std::uint32_t index) {
    std::uint32_t& tail = tails_[slot];
    if (tail == kNil) {
      payloads_[index].next = index;
      occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      summary_[slot >> 12] |= std::uint64_t{1} << ((slot >> 6) & 63);
    } else {
      payloads_[index].next = payloads_[tail].next;
      payloads_[tail].next = index;
    }
    tail = index;
    ++wheel_size_;
  }
  /// First occupied wheel slot at or after base_'s, wrapping around the
  /// ring. Precondition: wheel_size_ > 0.
  std::uint32_t wheel_front_slot() const;
  /// The earliest entry of both tiers, dead or alive; false when empty.
  bool any_front(Front& f) const {
    bool found = false;
    if (wheel_size_ != 0) {
      const std::uint32_t slot = wheel_front_slot();
      f.when = base_ + Time{(slot - slot_of(base_)) & kWheelMask};
      f.payload = payloads_[tails_[slot]].next;  // the ring's head
      f.slot = slot;
      found = true;
    }
    if (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (!found || top.when < f.when ||
          (top.when == f.when && top.seq < payloads_[f.payload].seq)) {
        f = Front{top.when, top.payload, kNil};
        found = true;
      }
    }
    return found;
  }
  /// The earliest live entry; dead entries ahead of it are dropped.
  bool live_front(Front& f) const {
    while (any_front(f)) {
      if (!payloads_[f.payload].cancelled) return true;
      unlink_front(f);
      release_payload(f.payload);
      --shared_->cancelled_queued;
    }
    return false;
  }
  /// Removes `f` (the current any_front()) from its tier.
  void unlink_front(const Front& f) const;
  /// Moves the front's callback out of the slab, recycles its cell and
  /// advances base_; the caller runs the callback.
  Callback take_front(const Front& f);
  /// Disengages a payload cell and recycles its index.
  void release_payload(std::uint32_t index) const;
  void maybe_compact() {
    if (heap_size() >= kCompactionFloor &&
        shared_->cancelled_queued * 2 > heap_size()) {
      compact();
    }
  }
  void compact();

  /// EventHandle entry points (bounds-checked: clear() may have shrunk the
  /// slab since the handle was issued).
  void cancel_event(std::uint32_t payload, std::uint64_t seq) {
    if (payload >= payloads_.size()) return;  // slab shrunk by clear()
    Payload& p = payloads_[payload];
    if (p.seq != seq || p.cancelled) return;  // fired, recycled, or repeated
    p.cancelled = true;
    ++shared_->cancelled_total;
    ++shared_->cancelled_queued;
  }
  bool event_cancelled(std::uint32_t payload, std::uint64_t seq) const {
    return payload < payloads_.size() && payloads_[payload].seq == seq &&
           payloads_[payload].cancelled;
  }

  // The far tier is a plain vector managed with std::push_heap/pop_heap so
  // the top entry can be inspected/removed and dead entries can be
  // compacted in place (std::priority_queue exposes neither).
  mutable std::vector<Entry> heap_;
  mutable std::vector<Payload> payloads_;
  mutable std::vector<std::uint32_t> free_payloads_;
  // Near tier: slot ring tails (allocated once, kWheelSlots long), a bit
  // per occupied slot, and a bit per non-zero occupied_ word.
  std::unique_ptr<std::uint32_t[]> tails_;
  mutable std::array<std::uint64_t, kWords> occupied_{};
  mutable std::array<std::uint64_t, kSummaryWords> summary_{};
  mutable std::size_t wheel_size_ = 0;
  Time base_{0};  ///< latest timestamp popped; only moves forward
  std::uint64_t next_seq_ = 0;
  detail::QueueShared* shared_;
  std::uint64_t popped_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t heap_peak_ = 0;
  std::uint64_t handles_allocated_ = 0;
  std::uint64_t callbacks_heap_ = 0;
};

inline void EventHandle::cancel() {
  if (!shared_ || shared_->queue == nullptr) return;
  shared_->queue->cancel_event(payload_, seq_);
}

inline bool EventHandle::cancelled() const {
  return shared_ && shared_->queue &&
         shared_->queue->event_cancelled(payload_, seq_);
}

}  // namespace spider::sim
