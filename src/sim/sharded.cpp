#include "sim/sharded.hpp"

#include <cassert>
#include <chrono>
#include <thread>
#include <utility>

namespace spider::sim {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

void SpinBarrier::arrive_and_wait() {
  // The phase cannot move before this thread arrives, so the value read
  // here is the phase being waited on.
  const std::uint32_t phase = phase_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arrival: reset the count for the next phase before publishing
    // it (the next phase's arrivals acquire the new phase first).
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(phase + 1, std::memory_order_seq_cst);
    // Pairs with the waiter's seq_cst increment-then-load below: either
    // the waiter sees the new phase and never sleeps, or this load sees
    // the waiter counted and the notify wakes it.
    if (sleepers_.load(std::memory_order_seq_cst) != 0) phase_.notify_all();
    return;
  }
  for (int i = 0; i < kSpinPolls; ++i) {
    if (phase_.load(std::memory_order_acquire) != phase) return;
    cpu_relax();
  }
  const auto yield_until = std::chrono::steady_clock::now() + kYieldFor;
  while (std::chrono::steady_clock::now() < yield_until) {
    if (phase_.load(std::memory_order_acquire) != phase) return;
    std::this_thread::yield();
  }
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  while (phase_.load(std::memory_order_seq_cst) == phase) {
    phase_.wait(phase, std::memory_order_acquire);
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

ShardedSimulator::ShardedSimulator(std::vector<Simulator*> shards, Time window)
    : sims_(std::move(shards)), window_(window) {
  assert(!sims_.empty());
  assert(window_ > Time{0});
  const auto s = sims_.size();
  boxes_.resize(s * s);
  lanes_.resize(s);
  hooks_.resize(s);
}

std::uint64_t ShardedSimulator::messages_sent() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.sent;
  return total;
}

void ShardedSimulator::drain(int to, int parity) {
  for (int from = 0; from < shards(); ++from) {
    auto& q = box(from, to).q[parity];
    // Index loop: an applied thunk may append to this very queue (only
    // during drain_initial / drain_final, where the lanes do not steer
    // sends away from the parity being drained) and so reallocate it;
    // each thunk is moved out before it runs.
    for (std::size_t i = 0; i < q.size(); ++i) {
      Thunk thunk = std::move(q[i]);
      thunk();
    }
    q.clear();
  }
}

void ShardedSimulator::drain_initial() {
  // Assembly-time sends all carry the initial parity (1, the parity of
  // window 1). Applying one may send again, possibly to a pair already
  // drained this round — loop until the system is quiescent so window 1
  // starts with empty mailboxes.
  bool again = true;
  while (again) {
    for (int to = 0; to < shards(); ++to) drain(to, 1);
    again = false;
    for (const Mailbox& b : boxes_) again = again || !b.q[1].empty();
  }
}

void ShardedSimulator::drain_final() {
  bool again = true;
  while (again) {
    for (int to = 0; to < shards(); ++to) {
      drain(to, 0);
      drain(to, 1);
    }
    again = false;
    for (const Mailbox& b : boxes_) {
      again = again || !b.q[0].empty() || !b.q[1].empty();
    }
  }
}

void ShardedSimulator::shard_main(int s, Time deadline, SpinBarrier& gate) {
  using Clock = std::chrono::steady_clock;
  Simulator& sim = shard(s);
  Lane& lane = lanes_[static_cast<std::size_t>(s)];
  lane.time = ShardTime{};
  std::uint64_t k = 0;
  Clock::time_point t0 = Clock::now();
  for (;;) {
    ++k;
    const int parity = static_cast<int>(k & 1);
    const Time target = std::min(Time{window_.count() * static_cast<Time::rep>(k)},
                                 deadline);
    // Sends made while executing window k land in parity k&1, which the
    // receivers drain after the barrier below.
    lane.out_parity = parity;
    sim.run_until(target);
    if (sim.interrupted()) stop_[parity].store(true, std::memory_order_relaxed);
    // Sends made while *draining* window k (a forwarded delivery whose
    // upcall transmits) belong to the next window.
    lane.out_parity = parity ^ 1;
    const Clock::time_point t1 = Clock::now();
    // A_k: all window-k sends and stop votes visible. Votes of window k+1
    // go to the other parity, and window k+2's cannot start before every
    // shard has passed A_{k+1}, i.e. has read this flag: every shard sees
    // the same vote and leaves at the same boundary.
    gate.arrive_and_wait();
    if (stop_[parity].load(std::memory_order_relaxed)) {
      lane.time.busy_s += seconds_between(t0, t1);
      lane.time.wait_s += seconds_between(t1, Clock::now());
      break;
    }
    const Clock::time_point t2 = Clock::now();
    // The drain needs no barrier behind it: it reads parity k&1, which no
    // shard writes again before window k+2 (after A_{k+1}, which this
    // shard reaches only once the drain is done), and its own sends go to
    // parity (k+1)&1 like the next window's. So one shard's drain overlaps
    // the others' window k+1, and the per-shard order of events, drains
    // and hooks is the same as draining between barriers.
    drain(s, parity);
    if (const Hook& hook = hooks_[static_cast<std::size_t>(s)]) hook();
    const Clock::time_point t3 = Clock::now();
    lane.time.busy_s += seconds_between(t0, t1);
    lane.time.wait_s += seconds_between(t1, t2);
    lane.time.drain_s += seconds_between(t2, t3);
    t0 = t3;
    if (target == deadline) break;
  }
  if (s == 0) windows_ = k;
}

bool ShardedSimulator::run_until(Time deadline, CancelToken* cancel) {
  const int s = shards();
  for (std::atomic<bool>& flag : stop_) {
    flag.store(false, std::memory_order_relaxed);
  }
  for (Simulator* sim : sims_) {
    if (cancel != nullptr) sim->set_cancel_token(cancel);
  }
  SpinBarrier gate(s);
  if (s == 1) {
    // Degenerate formation: run inline, no threads (kept for symmetry;
    // callers normally use the plain serial path for one shard).
    shard_main(0, deadline, gate);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(s));
    for (int i = 0; i < s; ++i) {
      workers.emplace_back([this, i, deadline, &gate] {
        shard_main(i, deadline, gate);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  bool interrupted = false;
  for (Simulator* sim : sims_) interrupted = interrupted || sim->interrupted();
  return !interrupted;
}

}  // namespace spider::sim
