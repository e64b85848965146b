#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "util/time.hpp"

namespace spider::obs {

struct TracerConfig {
  /// Ring capacity in events (40 B each). On overflow the oldest events
  /// are overwritten — the recorder always holds the newest history — and
  /// `overflowed()` counts what was lost. Zero is clamped to one.
  std::size_t capacity = 1 << 15;
  /// Label only (JSONL `seed` field); the tracer never draws randomness.
  std::uint64_t seed = 0;
};

/// Deterministic flight recorder for one simulation run.
///
/// A pre-sized ring of POD TraceEvents: record() is an index increment,
/// a 40-byte store and a per-kind counter bump — no allocation, no virtual
/// dispatch, no locks (one tracer per Simulator, one Simulator per
/// thread). Timestamps come from the simulation clock only, so a trace is
/// a pure function of (ScenarioConfig, seed) and byte-identical across
/// sweep worker counts.
///
/// When no tracer is installed the SPIDER_TRACE macro below costs one
/// pointer load and branch.
class Tracer {
 public:
  explicit Tracer(TracerConfig config = {})
      : config_(config), ring_(config.capacity ? config.capacity : 1) {}

  void record(Time t, TraceEvent e) {
    e.t_us = t.count();
    ring_[head_] = e;
    if (++head_ == ring_.size()) head_ = 0;
    if (size_ < ring_.size()) ++size_;
    ++recorded_;
    ++counts_[static_cast<std::size_t>(e.kind)];
  }

  std::size_t capacity() const { return ring_.size(); }
  /// Events currently retained (<= capacity).
  std::size_t size() const { return size_; }
  /// Events ever recorded, including overwritten ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring overflow (oldest-first eviction).
  std::uint64_t overflowed() const { return recorded_ - size_; }
  std::uint64_t seed() const { return config_.seed; }

  /// Times recorded() saw `kind`, counted outside the ring so overflow
  /// never skews the derived metrics.
  std::uint64_t count_of(TraceKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Per-layer counters ("<layer>.<kind>" per non-zero kind) plus the
  /// recorder's own accounting (obs.recorded / obs.overflowed counters,
  /// obs.ring_peak gauge).
  MetricsRegistry metrics() const;

 private:
  TracerConfig config_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kTraceKindCount> counts_{};
};

}  // namespace spider::obs

/// Emit a trace event through a Simulator-like object exposing `tracer()`
/// and `now()`. Payload fields use designated initializers, e.g.:
///
///   SPIDER_TRACE(sim_, .kind = obs::TraceKind::kAssocOk,
///                .track = obs::track::client(i), .id = bssid.raw());
///
/// Disabled-tracer cost: one pointer load + branch.
#define SPIDER_TRACE(sim, ...)                                          \
  do {                                                                  \
    if (::spider::obs::Tracer* spider_trace_t_ = (sim).tracer()) {      \
      spider_trace_t_->record((sim).now(),                              \
                              ::spider::obs::TraceEvent{__VA_ARGS__});  \
    }                                                                   \
  } while (0)
