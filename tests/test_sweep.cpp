// Tests for parallel sweeps (trace::ScenarioRunner::run_many and
// run_many_averaged) and the event-queue fixes they depend on. The core
// claim under test: a sweep's observable output is byte-identical for any
// worker count (DESIGN.md §7), so every digest here is an exact string
// comparison, not a tolerance check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/experiment.hpp"
#include "trace/runner.hpp"
#include "util/thread_pool.hpp"

using namespace spider;

namespace {

// ---------------------------------------------------------------------------
// ThreadPool / parallel_map

TEST(ThreadPool, RunsAllSubmittedJobs) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DefaultJobsHonoursEnvironment) {
  ::setenv("SPIDER_JOBS", "3", /*overwrite=*/1);
  EXPECT_EQ(util::ThreadPool::default_jobs(), 3u);
  ::setenv("SPIDER_JOBS", "not-a-number", 1);
  EXPECT_GE(util::ThreadPool::default_jobs(), 1u);
  ::unsetenv("SPIDER_JOBS");
  EXPECT_GE(util::ThreadPool::default_jobs(), 1u);
}

TEST(ParallelMap, ResultsIndexedBySubmissionOrder) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto out = util::parallel_map(
        jobs, 50, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 50u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelMap, PropagatesFirstException) {
  EXPECT_THROW(
      util::parallel_map(4, 16,
                         [](std::size_t i) -> int {
                           if (i == 7) throw std::runtime_error("boom");
                           return 0;
                         }),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// EventQueue regressions

TEST(EventQueue, CancelDecrementsLiveCountImmediately) {
  sim::EventQueue q;
  auto a = q.push(Time{100}, [] {});
  auto b = q.push(Time{200}, [] {});
  auto c = q.push(Time{300}, [] {});
  (void)a;
  (void)c;
  EXPECT_EQ(q.live_size(), 3u);
  b.cancel();
  // The fix under test: live accounting happens at cancel() time, not when
  // the dead entry is lazily dropped from the heap.
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_EQ(q.heap_size(), 3u);  // entry is still physically queued
  EXPECT_FALSE(q.empty());
  b.cancel();  // double-cancel must not decrement twice
  EXPECT_EQ(q.live_size(), 2u);
}

TEST(EventQueue, CancelledEventsNeverRun) {
  sim::EventQueue q;
  std::vector<int> ran;
  q.push(Time{1}, [&] { ran.push_back(1); });
  auto h = q.push(Time{2}, [&] { ran.push_back(2); });
  q.push(Time{3}, [&] { ran.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
  EXPECT_EQ(q.perf().events_popped, 2u);
  EXPECT_EQ(q.perf().events_cancelled, 1u);
}

TEST(EventQueue, CancelAfterPopIsHarmless) {
  sim::EventQueue q;
  auto h = q.push(Time{1}, [] {});
  q.pop_and_run();
  h.cancel();  // entry already left the heap; must not corrupt accounting
  EXPECT_EQ(q.live_size(), 0u);
  EXPECT_TRUE(q.empty());
  q.push(Time{2}, [] {});
  EXPECT_EQ(q.live_size(), 1u);
}

TEST(EventQueue, CompactionBoundsHeapUnderDeepCancellation) {
  // Cancel entries buried deep in the heap (latest timestamps), so lazy
  // top-popping alone would never reclaim them.
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 400; ++i) {
    handles.push_back(q.push(Time{1000 + i}, [] {}));
  }
  for (int i = 100; i < 400; ++i) handles[i].cancel();
  EXPECT_EQ(q.live_size(), 100u);
  // The next pushes notice that dead entries dominate and compact in place.
  for (int i = 0; i < 4; ++i) q.push(Time{10 + i}, [] {});
  EXPECT_GE(q.perf().compactions, 1u);
  EXPECT_LE(q.heap_size(), 200u);  // physical heap tracks live size again
  EXPECT_EQ(q.live_size(), 104u);
  // Survivors still fire in timestamp order.
  std::uint64_t fired = 0;
  Time prev{-1};
  while (!q.empty()) {
    const Time when = q.pop_and_run();
    EXPECT_GE(when, prev);
    prev = when;
    ++fired;
  }
  EXPECT_EQ(fired, 104u);
}

TEST(EventQueue, CancelOfCompactedEntryIsHarmless) {
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(q.push(Time{1000 + i}, [] {}));
  }
  for (int i = 50; i < 200; ++i) handles[i].cancel();
  q.push(Time{1}, [] {});  // triggers compaction
  ASSERT_GE(q.perf().compactions, 1u);
  const auto live = q.live_size();
  handles[60].cancel();  // already cancelled AND already compacted away
  EXPECT_EQ(q.live_size(), live);
}

// A copyable callable that counts how many times it is copied. std::function
// requires copyability, so the pop fix cannot eliminate copies at push time
// — but popping must not add any.
struct CopyCounter {
  std::shared_ptr<int> copies = std::make_shared<int>(0);
  CopyCounter() = default;
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter&) = default;
  CopyCounter& operator=(CopyCounter&&) = default;
  void operator()() const {}
};

TEST(EventQueue, PopMovesCallbackInsteadOfCopying) {
  sim::EventQueue q;
  CopyCounter counter;
  q.push(Time{1}, counter);
  const int copies_after_push = *counter.copies;
  q.pop_and_run();
  // The regression this guards against: pop_and_run deep-copied the
  // std::function out of the heap entry before invoking it.
  EXPECT_EQ(*counter.copies, copies_after_push);
}

TEST(EventQueue, PerfCountersTrackHeapPeak) {
  sim::EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(Time{i}, [] {});
  while (!q.empty()) q.pop_and_run();
  const auto p = q.perf();
  EXPECT_EQ(p.events_popped, 10u);
  EXPECT_EQ(p.heap_peak, 10u);
  EXPECT_EQ(p.events_cancelled, 0u);
}

TEST(PerfCounters, MergeSumsTotalsAndMaxesPeak) {
  sim::PerfCounters a;
  a.events_popped = 10;
  a.events_cancelled = 2;
  a.heap_peak = 50;
  a.compactions = 1;
  a.sim_seconds = 60.0;
  a.wall_seconds = 0.5;
  sim::PerfCounters b;
  b.events_popped = 5;
  b.heap_peak = 80;
  b.sim_seconds = 30.0;
  b.wall_seconds = 0.25;
  a.merge(b);
  EXPECT_EQ(a.events_popped, 15u);
  EXPECT_EQ(a.events_cancelled, 2u);
  EXPECT_EQ(a.heap_peak, 80u);
  EXPECT_EQ(a.compactions, 1u);
  EXPECT_DOUBLE_EQ(a.sim_seconds, 90.0);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);
}

template <class T>
void expect_merged(sim::MergeRule rule, const T& got, const T& mine,
                   const T& theirs, const char* field) {
  if constexpr (std::is_arithmetic_v<T>) {
    const T want = rule == sim::MergeRule::kSum   ? mine + theirs
                   : rule == sim::MergeRule::kMax ? std::max(mine, theirs)
                                                  : mine;
    EXPECT_EQ(got, want) << field;
  } else {
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_merged(rule, got[i], mine[i], theirs[i], field);
    }
  }
}

TEST(PerfCounters, MergesFollowEachCountersDeclaredRules) {
  // Every field (every per-shard entry too) gets a value no other field
  // has, in both records; merging in both orders then tells sum, max and
  // set apart for each field.
  sim::PerfCounters a, b;
  double next = 1.0;
  const auto fill = [&next](const sim::CounterInfo& c, auto& value) {
    EXPECT_NE(c.pool, sim::MergeRule::kSet) << c.field;
    using T = std::remove_cvref_t<decltype(value)>;
    if constexpr (std::is_arithmetic_v<T>) {
      value = static_cast<T>(next++);
    } else {
      for (double& v : value) v = next++;
    }
  };
  sim::PerfCounters::for_each(fill, a);
  sim::PerfCounters::for_each(fill, b);
  for (const bool shard : {false, true}) {
    for (const auto& [mine, theirs] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
      sim::PerfCounters merged = *mine;
      if (shard) {
        merged.merge_shard(*theirs);
      } else {
        merged.merge(*theirs);
      }
      sim::PerfCounters::for_each(
          [shard](const sim::CounterInfo& c, const auto& got, const auto& m,
                  const auto& t) {
            expect_merged(shard ? c.shard : c.pool, got, m, t, c.field);
          },
          std::as_const(merged), std::as_const(*mine), std::as_const(*theirs));
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep determinism (ScenarioRunner::run_many / run_many_averaged)

// Exact textual digest of everything deterministic in a result. Wall-clock
// perf fields are deliberately excluded; everything else must match to the
// byte across worker counts.
std::string digest(const trace::ScenarioResult& r) {
  std::ostringstream out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out << buf;
  };
  num(r.avg_throughput_kBps);
  num(r.connectivity);
  out << r.total_bytes << ',' << r.switches << ',';
  out << r.joins_attempted << ',' << r.assoc_succeeded << ','
      << r.dhcp_succeeded << ',' << r.e2e_succeeded << ',';
  out << r.faults_injected << ',' << r.outages << ',' << r.recoveries << ',';
  for (const Cdf* cdf :
       {&r.connection_durations, &r.disruption_durations,
        &r.instantaneous_kBps, &r.recovery_times}) {
    out << '[';
    for (double s : cdf->samples()) num(s);
    out << ']';
  }
  out << '{';
  for (const auto& j : r.join_log) {
    out << static_cast<int>(j.channel) << ':' << static_cast<int>(j.outcome)
        << ':' << j.finished << ':' << j.used_lease_cache << ':';
    num(to_seconds(j.started));
    num(j.assoc_delay ? to_seconds(*j.assoc_delay) : -1.0);
    num(j.dhcp_delay ? to_seconds(*j.dhcp_delay) : -1.0);
    num(j.e2e_delay ? to_seconds(*j.e2e_delay) : -1.0);
  }
  out << '}';
  // Deterministic perf counters (engine event counts are part of the
  // reproducibility contract; wall-clock is not).
  out << r.perf.events_popped << ',' << r.perf.events_cancelled << ','
      << r.perf.heap_peak << ',' << r.perf.compactions << ',';
  num(r.perf.sim_seconds);
  return out.str();
}

std::vector<trace::ScenarioConfig> small_sweep() {
  std::vector<trace::ScenarioConfig> configs;
  for (std::uint64_t seed : {11, 12, 13, 14}) {
    trace::ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.duration = sec(90);
    cfg.deployment.road_length_m = 1200;
    cfg.deployment.aps_per_km = 8;
    cfg.spider.mode = core::OperationMode::single(6);
    configs.push_back(cfg);
  }
  return configs;
}

TEST(SweepRunner, ParallelRunMatchesSerialByteForByte) {
  const auto configs = small_sweep();

  std::vector<std::string> serial;
  for (const auto& cfg : configs) {
    serial.push_back(digest(trace::run_scenario(cfg)));
  }

  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto results =
        trace::ScenarioRunner({.jobs = jobs}).run_many(configs);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(digest(results[i]), serial[i])
          << "jobs=" << jobs << " config " << i;
    }
  }
}

TEST(SweepRunner, RunAveragedMatchesSerialAveraging) {
  auto configs = small_sweep();
  configs.resize(2);

  std::vector<std::string> serial;
  for (const auto& cfg : configs) {
    serial.push_back(digest(trace::run_scenario_averaged(cfg, 3)));
  }

  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto results =
        trace::ScenarioRunner({.repetitions = 3, .jobs = jobs})
            .run_many_averaged(configs);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(digest(results[i]), serial[i])
          << "jobs=" << jobs << " config " << i;
    }
  }
}

TEST(SweepRunner, ResolvesWorkerCount) {
  EXPECT_EQ(trace::ScenarioRunner({.jobs = 5}).jobs(), 5u);
  EXPECT_GE(trace::ScenarioRunner({.jobs = 0}).jobs(), 1u);
}

TEST(SweepRunner, EmptySweepReturnsEmpty) {
  EXPECT_TRUE(trace::ScenarioRunner({.jobs = 4}).run_many({}).empty());
}

TEST(SweepRunner, PerfCountersArePopulated) {
  auto configs = small_sweep();
  configs.resize(1);
  const auto results = trace::ScenarioRunner({.jobs = 2}).run_many(configs);
  ASSERT_EQ(results.size(), 1u);
  const auto& p = results[0].perf;
  EXPECT_GT(p.events_popped, 0u);
  EXPECT_GT(p.heap_peak, 0u);
  EXPECT_DOUBLE_EQ(p.sim_seconds, 90.0);
  EXPECT_GT(p.wall_seconds, 0.0);
  EXPECT_GT(p.sim_rate(), 0.0);
}

}  // namespace
