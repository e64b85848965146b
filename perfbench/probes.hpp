// Host-side measurement helpers for the benchmark binary: a wall clock,
// span recording, order statistics, the frozen reference kernel and the two
// layer probes (event queue, medium fan-out). Everything here times the
// simulator from outside through its public headers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace spider;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the one mixer every derived input seed goes through.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile; callers keep q such that at least ten samples lie
/// beyond it.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// In-memory spans of the traced run: name, start, end, causing span, and
/// how many calls of the named operation the span covers. Written out once
/// the run ends, never while it is timing.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t calls = 1;
    double seconds() const { return end_s - start_s; }
  };

  /// Opens a span under the innermost open one; returns its id.
  int open(std::string name, std::uint64_t calls = 1) {
    spans_.push_back(Span{std::move(name), now(), 0.0, open_, calls});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  /// Ends span `id` (the innermost open one) now; returns its seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now();
    open_ = s.parent;
    return s.seconds();
  }

  /// A span closed when the scope ends, or earlier by close().
  class Scope {
   public:
    Scope(Spans& spans, std::string name, std::uint64_t calls)
        : spans_(spans), id_(spans.open(std::move(name), calls)) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double close() {
      if (!closed_) {
        seconds_ = spans_.close(id_);
        closed_ = true;
      }
      return seconds_;
    }

   private:
    Spans& spans_;
    int id_;
    bool closed_ = false;
    double seconds_ = 0.0;
  };

  Scope scope(std::string name, std::uint64_t calls = 1) {
    return Scope(*this, std::move(name), calls);
  }

  /// Median over the spans called `name` of their time per covered call.
  double median_per_call(const std::string& name) const {
    std::vector<double> v;
    for (const Span& s : spans_) {
      if (s.name == name) v.push_back(s.seconds() / static_cast<double>(s.calls));
    }
    return median(v);
  }

  /// One JSON object per span, in opening order.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_s\":%.9f,"
                   "\"end_s\":%.9f,\"calls\":%llu}\n",
                   i, s.parent, s.name.c_str(), s.start_s, s.end_s,
                   static_cast<unsigned long long>(s.calls));
    }
    return std::fclose(f) == 0;
  }

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

/// The frozen reference kernel: fixed integer hashing through a 4096-entry
/// binary heap plus a branchy table walk, about 40 ms on a current x86 core.
/// It never calls the simulator and must never be tuned, so its time across
/// commits tells a slow host apart from a regression. Returns a checksum
/// so the work cannot be optimised away.
inline std::uint64_t reference_kernel() {
  std::vector<std::uint64_t> heap;
  heap.reserve(4096);
  std::vector<std::uint32_t> table(1 << 16);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint64_t sum = 0;
  for (int i = 0; i < 4096; ++i) {
    x = mix64(x);
    heap.push_back(x);
  }
  std::make_heap(heap.begin(), heap.end());
  for (int i = 0; i < 600000; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    const std::uint64_t top = heap.back();
    x = mix64(x ^ top);
    heap.back() = x >> 1;
    std::push_heap(heap.begin(), heap.end());
    std::uint32_t& cell = table[x & 0xffff];
    cell = (cell & 1) != 0 ? cell * 3 + 1 : cell / 2 + static_cast<std::uint32_t>(top);
    sum += cell;
  }
  return sum;
}

/// Milliseconds per reference-kernel call, one sample per call.
inline std::vector<double> time_reference_kernel(int calls,
                                                 std::uint64_t* sink) {
  std::vector<double> ms;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    *sink += reference_kernel();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return ms;
}

/// Event-queue probe: the hold model at a fixed depth. The queue is filled
/// to `depth` live events, then every step pops the earliest and pushes one
/// a pseudo-random interval later, so the heap stays at the workload's own
/// peak size. Returns host nanoseconds per push+pop pair.
inline double queue_probe_ns(std::size_t depth, std::uint64_t steps) {
  sim::EventQueue q;
  std::uint64_t x = 0x51ed2701a3c5f1e9ULL;
  for (std::size_t i = 0; i < depth; ++i) {
    x = mix64(x);
    q.push_nocancel(Time{static_cast<std::int64_t>(x % 1000000)}, [] {});
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < steps; ++i) {
    const Time at = q.pop_and_run();
    x = mix64(x);
    q.push_nocancel(at + Time{static_cast<std::int64_t>(x % 1000000)}, [] {});
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(steps);
}

/// Medium fan-out probe: `cohort` radios tuned to one channel inside one
/// propagation cell, one of them broadcasting a beacon per step; every
/// other radio receives it. Returns host nanoseconds per delivery.
inline double delivery_probe_ns(int cohort, int steps) {
  cohort = std::max(cohort, 2);
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation({.base_loss = 0.0}), Rng(1));
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < cohort; ++i) {
    const double x = 40.0 * static_cast<double>(i) / cohort;
    radios.push_back(std::make_unique<phy::Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i + 1)),
        [x] { return Position{x, 0}; }));
    radios.back()->tune(6);
  }
  sim.run_until(msec(10));
  const std::uint64_t fanout_before = medium.fanout_scheduled();
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.dst = wire::MacAddress::broadcast();
  f.size_bytes = 100;
  const auto t0 = Clock::now();
  for (int i = 0; i < steps; ++i) {
    wire::Frame frame = f;
    medium.transmit(*radios[0], std::move(frame));
    sim.run_until(sim.now() + msec(2));
  }
  const double secs = seconds_since(t0);
  const std::uint64_t delivered = medium.fanout_scheduled() - fanout_before;
  return delivered == 0 ? 0.0 : secs * 1e9 / static_cast<double>(delivered);
}

}  // namespace perfbench
