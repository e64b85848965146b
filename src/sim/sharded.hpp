#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/cancel.hpp"
#include "sim/simulator.hpp"
#include "util/inline_function.hpp"
#include "util/time.hpp"

namespace spider::sim {

/// Reusable rendezvous for a fixed party of threads that meet often and
/// briefly: a sharded formation crosses two per lookahead window, tens of
/// thousands per run, each a few microseconds apart. A waiter polls the
/// phase word in three bounded stages: a short `pause` spin, then polls
/// between sched_yield calls for up to kYieldFor, and only then parks with
/// std::atomic::wait. Parked threads count themselves, so the releasing
/// thread pays for notify_all only when someone actually sleeps.
///
/// Why this shape, measured on a 4-vCPU VM: parking at every crossing (as
/// std::barrier does) costs ~100 µs per wake — a parked vCPU halts — and
/// made a 4-shard formation slower than the serial engine. Long `pause`
/// spins fix that on idle cores but burn the cores that oversubscribed
/// formations (more shard threads than free CPUs, e.g. several sharded
/// tests under `ctest -j`) need: two concurrent 4-shard test binaries ran
/// 3-7x slower with 4096 pauses before parking. A yield keeps the waiter
/// awake through short preemptions yet hands the core to whatever else is
/// runnable on it. Every stage is bounded, so no waiter livelocks a core.
class SpinBarrier {
 public:
  /// Pause-polls before yielding (~1 µs; a `pause` is 10-140 cycles).
  static constexpr int kSpinPolls = 64;
  /// How long a waiter keeps yield-polling before it parks.
  static constexpr std::chrono::microseconds kYieldFor{2000};

  explicit SpinBarrier(int parties) : parties_(parties) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all `parties` threads have arrived at this phase. The
  /// arrivals happen-before every return (acquire/release on the phase).
  void arrive_and_wait();

 private:
  const int parties_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> phase_{0};
  std::atomic<int> sleepers_{0};
};

/// Conservative lockstep coordinator for intra-run parallel simulation.
///
/// Each shard is an ordinary single-threaded Simulator advanced on its own
/// worker thread. Time is divided into fixed windows of `window` (the
/// cross-shard lookahead, see phy/shard_link.hpp for the derivation): all
/// shards execute window k and rendezvous at one barrier (every window-k
/// message and stop vote is then visible) and read window k's stop flag;
/// then each shard applies the messages addressed to it, runs its window
/// hooks and goes on to window k+1, overlapping the other shards' drains.
/// The stop flag is double-buffered by window parity like the mailboxes,
/// so a fast shard voting to stop in window k+1 cannot flip the flag a
/// slow shard is still to read for window k. The protocol is
/// safe — no shard ever receives a message destined for its past — as
/// long as every cross-shard interaction committed while
/// executing window k takes effect strictly after the window boundary k*W,
/// which the caller guarantees by choosing `window` at or below the
/// minimum cross-shard latency (frame airtime, switch latency).
///
/// Messages are closures ("apply thunks") carried in per-(sender,receiver)
/// mailboxes, stored inline (no heap cell per message). Each mailbox is
/// double-buffered by window parity: while the receiver drains parity k&1,
/// senders append to parity (k+1)&1, so no buffer is ever read and written
/// concurrently; the only atomics in the engine are the stop flags, the
/// cancel token and the rendezvous barrier's own counters (SpinBarrier).
/// Drains apply thunks in sender order 0..S-1, FIFO within a sender — a
/// deterministic order per shard count, which is exactly the
/// reproducibility contract of a sharded run (DESIGN.md §12).
///
/// A thunk applied during a drain may itself send (e.g. a forwarded frame
/// delivery whose upcall transmits); those sends target the next window's
/// parity and are picked up one drain later, still ahead of any simulation
/// event that could observe them.
class ShardedSimulator {
 public:
  /// Inline capacity of a message: the largest hot-path message, a
  /// fan-out injection (medium, channel, position, time, rate, frame,
  /// sender id), is 200 bytes. Larger closures fall back to a heap cell.
  static constexpr std::size_t kThunkBytes = 200;
  using Thunk = util::InlineFunction<kThunkBytes>;
  using Hook = std::function<void()>;

  /// `shards` are borrowed, one per worker; `window` is the lookahead.
  ShardedSimulator(std::vector<Simulator*> shards, Time window);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int shards() const { return static_cast<int>(sims_.size()); }
  Time window() const { return window_; }
  Simulator& shard(int s) { return *sims_[static_cast<std::size_t>(s)]; }

  /// Enqueues `thunk` to run on shard `to`'s thread at the next drain
  /// point. Must be called from shard `from`'s thread (or from the
  /// coordinating thread before run_until — see drain_initial).
  template <typename F>
  void send(int from, int to, F&& thunk) {
    Lane& lane = lanes_[static_cast<std::size_t>(from)];
    box(from, to).q[lane.out_parity].emplace_back(std::forward<F>(thunk));
    ++lane.sent;
  }

  /// Applies every thunk sent before the run starts (assembly-time proxy
  /// registrations). Call from the coordinating thread after the topology
  /// is built and before run_until; loops until no thunk re-sends.
  void drain_initial();

  /// Applies thunks still in flight after run_until returned — messages
  /// sent while draining the final window (e.g. forwarded deliveries that
  /// landed on a proxy in the last lookahead window) have no later drain
  /// point. Call from the coordinating thread; loops until quiescent.
  void drain_final();

  /// Installs the per-window callback for shard `s`, run on its worker
  /// thread after each window's drain (sends made by the hook join the
  /// next window's exchange), replacing any hook installed earlier. Used
  /// for home-side proxy migration sweeps.
  void set_window_hook(int s, Hook hook) {
    hooks_[static_cast<std::size_t>(s)] = std::move(hook);
  }

  /// Runs every shard to `deadline` in lockstep windows. Installs `cancel`
  /// (may be null) on each shard; if any shard's simulator is interrupted
  /// the whole formation stops at the next window boundary. Returns true
  /// when every shard reached the deadline uninterrupted.
  bool run_until(Time deadline, CancelToken* cancel = nullptr);

  /// Windows executed by the last run_until (diagnostics).
  std::uint64_t windows_run() const { return windows_; }
  /// Where one shard's wall-clock went during the last run_until, in
  /// seconds: executing its windows (busy), blocked at the barrier
  /// (wait), and applying its mailbox plus window hooks (drain). Host-
  /// dependent diagnostics; the three add up to the formation's wall.
  struct ShardTime {
    double busy_s = 0.0;
    double wait_s = 0.0;
    double drain_s = 0.0;
  };
  ShardTime shard_time(int s) const {
    return lanes_[static_cast<std::size_t>(s)].time;
  }
  /// Total cross-shard thunks sent so far (deterministic per shard count).
  std::uint64_t messages_sent() const;

 private:
  /// Double-buffered SPSC mailbox for one (sender, receiver) pair. The
  /// index loop in drain() tolerates appends mid-drain (self-sends during
  /// drain_initial); clear() keeps capacity, so steady state allocates
  /// only when a window outgrows every previous one.
  struct Mailbox {
    std::vector<Thunk> q[2];
  };
  /// Per-shard sender state, cacheline-separated to keep the hot append
  /// path free of false sharing.
  struct alignas(64) Lane {
    int out_parity = 1;  ///< parity of the window currently being filled
    std::uint64_t sent = 0;
    ShardTime time;      ///< written by the shard's own thread only
  };

  Mailbox& box(int from, int to) {
    return boxes_[static_cast<std::size_t>(from) *
                      static_cast<std::size_t>(shards()) +
                  static_cast<std::size_t>(to)];
  }
  /// Applies and clears every thunk addressed to `to` at `parity`.
  void drain(int to, int parity);
  void shard_main(int s, Time deadline, SpinBarrier& gate);

  std::vector<Simulator*> sims_;
  Time window_;
  std::vector<Mailbox> boxes_;  ///< S*S, row-major by sender
  std::vector<Lane> lanes_;     ///< one per shard
  std::vector<Hook> hooks_;     ///< one per shard; empty = none
  /// Stop votes, indexed by window parity: window k's votes go to
  /// stop_[k & 1], which nobody writes again before window k+2.
  std::atomic<bool> stop_[2] = {false, false};
  std::uint64_t windows_ = 0;
};

}  // namespace spider::sim
