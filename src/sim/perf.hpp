#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace spider::sim {

/// Widest formation a run may use (validate() rejects wider ones); sizes
/// the per-shard entries of PerfCounters.
inline constexpr int kMaxShards = 64;

/// One wall-clock figure per shard index of a formation, in seconds.
using PerShardSeconds = std::array<double, kMaxShards>;

/// How a counter combines with another record's value of it.
enum class MergeRule {
  kSum,
  kMax,
  /// Stamped once by whoever coordinates the run; never merged across the
  /// shards of one run (pooled repetitions only ever sum or max).
  kSet,
};

/// A counter's declared properties, handed to PerfCounters::for_each.
struct CounterInfo {
  const char* field;   ///< member name
  const char* column;  ///< perf-CSV column, or nullptr
  /// Name in the traced metrics view, or nullptr. A '#' stands for the
  /// shard index of a per-shard entry. Pooled-max counters export as
  /// gauges and the rest as counters, so MetricsRegistry::merge pools the
  /// view by the same rules the record pools by.
  const char* metric;
  MergeRule pool;   ///< across pooled repetitions: kSum or kMax
  MergeRule shard;  ///< across the shards of one run
};

// Every run counter, declared once:
//   X(type, field, csv column, metric name, pooled rule, shard rule)
// Declaration order is the perf CSV's column order. The heap peaks add
// across shards because the per-shard heaps coexist in memory; the
// simulated horizon takes the max across shards because the shards advance
// one clock in parallel (summing it would overstate the horizon S-fold and
// hide the speedup sharding exists to deliver). Wall-clock values vary
// between machines and runs, so no bench prints them to stdout.
// clang-format off
#define SPIDER_PERF_COUNTERS(X)                                                          \
  /* the run's formation width (1 for a single testbed) */                               \
  X(std::uint64_t, shards, "shards", "shard.width", kMax, kSet)                          \
  /* event queue (EventQueue::perf): callbacks dispatched, handles cancelled before   */ \
  /* firing, max physical queue size, cancelled-entry sweeps, cancellable schedules   */ \
  /* issued (slab bookkeeping, not mallocs), and callbacks whose captures outgrew the */ \
  /* inline buffer (zero on the hot path by design)                                   */ \
  X(std::uint64_t, events_popped, "events_popped", nullptr, kSum, kSum)                  \
  X(std::uint64_t, events_cancelled, "events_cancelled", nullptr, kSum, kSum)            \
  X(std::size_t, heap_peak, "heap_peak", nullptr, kMax, kSum)                            \
  X(std::uint64_t, compactions, "compactions", nullptr, kSum, kSum)                      \
  X(std::uint64_t, handles_allocated, "handles_allocated", nullptr, kSum, kSum)          \
  X(std::uint64_t, callbacks_heap, "callbacks_heap", nullptr, kSum, kSum)                \
  /* medium fan-out (phy::Medium, incremented in place): transmits, deliveries        */ \
  /* scheduled, same-channel candidates examined, occupied grid cells probed, and     */ \
  /* mobile radios moved between grid cells                                           */ \
  X(std::uint64_t, frames_tx, "frames_tx", nullptr, kSum, kSum)                          \
  X(std::uint64_t, frames_fanout, "frames_fanout", nullptr, kSum, kSum)                  \
  X(std::uint64_t, radio_candidates, "radio_candidates", nullptr, kSum, kSum)            \
  X(std::uint64_t, grid_cells_scanned, "grid_cells_scanned", "phy.grid_cells_scanned",   \
    kSum, kSum)                                                                          \
  X(std::uint64_t, grid_rebuckets, "grid_rebuckets", "phy.grid_rebuckets", kSum, kSum)   \
  /* simulated horizon and host wall-clock of the run */                                 \
  X(double, sim_seconds, "sim_s", nullptr, kSum, kMax)                                   \
  X(double, wall_seconds, "wall_s", nullptr, kSum, kSet)                                 \
  /* formation diagnostics (ShardedSimulator, ShardFabric) and each shard's           */ \
  /* wall-clock split: executing windows, blocked at barriers, draining mailboxes     */ \
  X(std::uint64_t, shard_windows, nullptr, "shard.windows", kSum, kSet)                  \
  X(std::uint64_t, shard_messages, nullptr, "shard.messages", kSum, kSet)                \
  X(std::uint64_t, shard_migrations, nullptr, "shard.migrations", kSum, kSet)            \
  X(PerShardSeconds, shard_busy_s, nullptr, "shard.#.busy_s", kSum, kSet)                \
  X(PerShardSeconds, shard_wait_s, nullptr, "shard.#.wait_s", kSum, kSet)                \
  X(PerShardSeconds, shard_drain_s, nullptr, "shard.#.drain_s", kSum, kSet)
// clang-format on

/// The one record of a run's counters. The event-queue fields come from
/// EventQueue::perf, the medium fields from the record phy::Medium keeps in
/// place, and the coordinator-set fields are stamped by
/// trace::detail::execute_scenario. Each counter's merge rules are declared
/// next to it above, so merge, merge_shard, the perf CSV and the traced
/// metrics view are all loops over that one list.
struct PerfCounters {
#define SPIDER_PERF_FIELD(type, field, column, metric, pool, shard) type field{};
  SPIDER_PERF_COUNTERS(SPIDER_PERF_FIELD)
#undef SPIDER_PERF_FIELD

  /// Simulated-seconds-per-wall-second; 0 when the run was too fast to time.
  double sim_rate() const {
    return wall_seconds > 0.0 ? sim_seconds / wall_seconds : 0.0;
  }

  /// Calls f(info, records.field...) for every counter in declaration
  /// order, passing the same field of each record.
  template <class F, class... Records>
  static void for_each(F&& f, Records&... records) {
#define SPIDER_PERF_VISIT(type, field, column, metric, pool, shard)              \
  f(CounterInfo{#field, column, metric, MergeRule::pool, MergeRule::shard}, \
    records.field...);
    SPIDER_PERF_COUNTERS(SPIDER_PERF_VISIT)
#undef SPIDER_PERF_VISIT
  }

  /// Merge for pooled repetitions: each counter by its pooled rule.
  void merge(const PerfCounters& other) {
    for_each([](const CounterInfo& c, auto& mine,
                const auto& theirs) { combine(c.pool, mine, theirs); },
             *this, other);
  }

  /// Merge for the shards of ONE run: each counter by its shard rule.
  void merge_shard(const PerfCounters& other) {
    for_each([](const CounterInfo& c, auto& mine,
                const auto& theirs) { combine(c.shard, mine, theirs); },
             *this, other);
  }

  /// Calls f(name, value, is_gauge) for every exported entry: pooled-max
  /// counters are gauges, the rest counters, and per-shard entries expand
  /// to one name per shard index. Coordinator-set counters describe a
  /// formation, so a single-testbed run exports none of them.
  template <class F>
  void for_each_metric(F&& f) const {
    for_each(
        [&](const CounterInfo& c, const auto& value) {
          if (c.metric == nullptr) return;
          if (c.shard == MergeRule::kSet && shards < 2) return;
          const bool gauge = c.pool == MergeRule::kMax;
          if constexpr (std::is_arithmetic_v<
                            std::remove_cvref_t<decltype(value)>>) {
            f(std::string(c.metric), static_cast<double>(value), gauge);
          } else {
            const std::string name = c.metric;
            const std::size_t hash = name.find('#');
            for (std::size_t s = 0; s < shards; ++s) {
              f(name.substr(0, hash) + std::to_string(s) +
                    name.substr(hash + 1),
                value[s], gauge);
            }
          }
        },
        *this);
  }

 private:
  template <class T>
  static void combine(MergeRule rule, T& into, const T& from) {
    if constexpr (std::is_arithmetic_v<T>) {
      if (rule == MergeRule::kSum) into += from;
      if (rule == MergeRule::kMax) into = std::max(into, from);
    } else {
      for (std::size_t i = 0; i < into.size(); ++i) {
        combine(rule, into[i], from[i]);
      }
    }
  }
};

}  // namespace spider::sim
