#pragma once

#include <cstddef>
#include <cstdint>

namespace spider::sim {

/// Engine-level counters for one simulation run. The event-queue fields are
/// filled from EventQueue/Simulator accessors; the medium fields from
/// phy::Medium::add_perf; the wall-clock fields are stamped by whoever timed
/// the run (trace::run_scenario, SweepRunner).
///
/// Wall-clock values vary between machines and runs, so they are exported
/// only through write_perf_csv — never through the deterministic stdout of
/// a bench, which must stay byte-identical across --jobs settings.
struct PerfCounters {
  std::uint64_t events_popped = 0;     ///< callbacks actually dispatched
  std::uint64_t events_cancelled = 0;  ///< handles cancelled before firing
  std::size_t heap_peak = 0;           ///< max physical queue size observed
  std::uint64_t compactions = 0;       ///< cancelled-entry queue sweeps

  // --- hot-path allocation accounting --------------------------------
  /// Cancellable schedules (EventHandles issued). Handles index the queue's
  /// payload slab, so this tracks bookkeeping volume, not mallocs; the
  /// handle-free path (Simulator::post) contributes nothing here.
  std::uint64_t handles_allocated = 0;
  /// Callbacks whose captures exceeded the inline buffer and fell back to
  /// a heap cell. Zero on the hot path by design; a regression here means a
  /// capture outgrew EventQueue::kCallbackCapacity.
  std::uint64_t callbacks_heap = 0;

  // --- medium fan-out accounting --------------------------------------
  /// Frames put on the air (Medium::transmit calls).
  std::uint64_t frames_tx = 0;
  /// Per-receiver deliveries scheduled by phy::Medium::transmit.
  std::uint64_t frames_fanout = 0;
  /// Same-channel candidate radios examined across all transmits (the
  /// channel index makes this the cohort size, not the whole radio table;
  /// the spatial grid shrinks it further to the 3x3 cell neighborhood).
  std::uint64_t radio_candidates = 0;
  /// *Occupied* grid cells probed by neighborhood queries (at most 9 per
  /// grid-mode transmit; empty or absent cells are answered by the
  /// occupancy bitmap and not counted; 0 under the brute-force index).
  std::uint64_t grid_cells_scanned = 0;
  /// Mobile radios moved between grid cells by the position-epoch sweep.
  std::uint64_t grid_rebuckets = 0;

  double sim_seconds = 0.0;            ///< simulated horizon of the run
  double wall_seconds = 0.0;           ///< host time spent executing it

  /// Simulated-seconds-per-wall-second; 0 when the run was too fast to time.
  double sim_rate() const {
    return wall_seconds > 0.0 ? sim_seconds / wall_seconds : 0.0;
  }

  /// Merge for pooled/averaged runs: totals add, the peak takes the max.
  void merge(const PerfCounters& other) {
    events_popped += other.events_popped;
    events_cancelled += other.events_cancelled;
    if (other.heap_peak > heap_peak) heap_peak = other.heap_peak;
    compactions += other.compactions;
    handles_allocated += other.handles_allocated;
    callbacks_heap += other.callbacks_heap;
    frames_tx += other.frames_tx;
    frames_fanout += other.frames_fanout;
    radio_candidates += other.radio_candidates;
    grid_cells_scanned += other.grid_cells_scanned;
    grid_rebuckets += other.grid_rebuckets;
    sim_seconds += other.sim_seconds;
    wall_seconds += other.wall_seconds;
  }

  /// Merge for the shards of ONE run. Totals add exactly like merge(), but
  /// with two deliberate differences: the heap peaks *sum* (the per-shard
  /// event heaps coexist in memory, so the run's footprint is their total,
  /// not their max), and the simulated horizon takes the max instead of
  /// adding (the shards advance the same clock in parallel — summing would
  /// overstate the horizon S-fold and hide the very speedup sharding
  /// exists to deliver; with the max, sim_rate() > 1 means the formation
  /// outran real time). Wall-clock is stamped once by the coordinator and
  /// left alone here.
  void merge_shard(const PerfCounters& other) {
    events_popped += other.events_popped;
    events_cancelled += other.events_cancelled;
    heap_peak += other.heap_peak;
    compactions += other.compactions;
    handles_allocated += other.handles_allocated;
    callbacks_heap += other.callbacks_heap;
    frames_tx += other.frames_tx;
    frames_fanout += other.frames_fanout;
    radio_candidates += other.radio_candidates;
    grid_cells_scanned += other.grid_cells_scanned;
    grid_rebuckets += other.grid_rebuckets;
    if (other.sim_seconds > sim_seconds) sim_seconds = other.sim_seconds;
  }
};

}  // namespace spider::sim
