// Engine micro-benchmarks (google-benchmark): how fast the simulator core
// runs. These are sanity/perf-regression checks for the substrate, not
// paper reproductions — the experiment benches above depend on the engine
// being fast enough to sweep 30-minute drives in seconds.

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

#include "core/link_manager.hpp"
#include "core/spider_driver.hpp"
#include "sim/event_queue.hpp"
#include "trace/experiment.hpp"
#include "trace/runner.hpp"
#include "trace/testbed.hpp"
#include "util/random.hpp"

using namespace spider;

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(Time{t + (i * 37) % 1000}, [] {});
    }
    while (!q.empty()) q.pop_and_run();
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventQueuePushPopHeavyCallback(benchmark::State& state) {
  // Callbacks whose captures are expensive to copy. pop_and_run moves the
  // callback out of the heap entry, so this should track the trivial-capture
  // benchmark closely; a copying pop would be dominated by the array copy.
  sim::EventQueue q;
  std::array<std::uint64_t, 64> payload{};
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(Time{t + (i * 37) % 1000},
             [payload] { benchmark::DoNotOptimize(payload[0]); });
    }
    while (!q.empty()) q.pop_and_run();
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPopHeavyCallback);

void BM_EventHandleCancel(benchmark::State& state) {
  sim::EventQueue q;
  for (auto _ : state) {
    auto h = q.push(Time{1000}, [] {});
    h.cancel();
    benchmark::DoNotOptimize(q.empty());
  }
}
BENCHMARK(BM_EventHandleCancel);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // Timer-churn pattern: most scheduled events are cancelled before firing
  // (retransmit timers that are reset on every ack). Compaction keeps the
  // heap near its live size instead of accreting dead entries.
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      auto h = q.push(Time{t + 1000 + i}, [] {});
      if (i % 8 != 0) h.cancel();  // 7 of 8 cancelled
    }
    while (!q.empty()) q.pop_and_run();
    t += 2000;
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.counters["compactions"] = static_cast<double>(q.perf().compactions);
  state.counters["heap_peak"] = static_cast<double>(q.perf().heap_peak);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueWorkloadMix(benchmark::State& state) {
  // Hold model (pop one, push one) at city-fleet's live depth, with delays
  // drawn from the histogram of pushes the full stack makes: frame
  // deliveries, wired hops, TCP/slot timers, then beacons and protocol
  // timers. The first three bands land in the queue's near tier, the last
  // two in its far tier.
  struct Band {
    double share;
    std::int64_t lo_us, hi_us;
  };
  constexpr std::array<Band, 5> kBands{{{0.50, 128, 512},
                                        {0.20, 1000, 2000},
                                        {0.10, 8000, 16000},
                                        {0.15, 64000, 128000},
                                        {0.05, 100000, 1000000}}};
  constexpr std::size_t kDepth = 7000;
  Rng rng(1);
  std::vector<std::int64_t> delays(1 << 16);
  for (auto& d : delays) {
    double u = rng.uniform(0, 1);
    const Band* band = &kBands.back();
    for (const Band& b : kBands) {
      if (u < b.share) {
        band = &b;
        break;
      }
      u -= b.share;
    }
    d = rng.uniform_int(band->lo_us, band->hi_us);
  }
  sim::EventQueue q;
  std::size_t next = 0;
  const auto draw = [&] { return Time{delays[next++ & (delays.size() - 1)]}; };
  for (std::size_t i = 0; i < kDepth; ++i) q.push_nocancel(draw(), [] {});
  for (auto _ : state) {
    const Time now = q.pop_and_run();
    q.push_nocancel(now + draw(), [] {});
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["heap_peak"] = static_cast<double>(q.perf().heap_peak);
}
BENCHMARK(BM_EventQueueWorkloadMix);

void BM_MediumBroadcast(benchmark::State& state) {
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation({.base_loss = 0.0}), Rng(1));
  std::vector<std::unique_ptr<phy::Radio>> radios;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        medium, wire::MacAddress(i + 1),
        [i] { return Position{static_cast<double>(i), 0}; }));
    radios.back()->tune(6);
  }
  sim.run_until(msec(10));
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.dst = wire::MacAddress::broadcast();
  f.size_bytes = 100;
  for (auto _ : state) {
    radios[0]->send(f);
    sim.run_until(sim.now() + msec(2));
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_MediumBroadcast)->Arg(4)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_TownScenarioMinute(benchmark::State& state) {
  // Wall-clock cost of one simulated minute of the full stack.
  for (auto _ : state) {
    trace::ScenarioConfig cfg;
    cfg.seed = 1;
    cfg.duration = sec(60);
    cfg.deployment.road_length_m = 1500;
    cfg.deployment.aps_per_km = 10;
    cfg.spider.mode = core::OperationMode::single(6);
    auto result = trace::run_scenario(cfg);
    benchmark::DoNotOptimize(result.total_bytes);
  }
}
BENCHMARK(BM_TownScenarioMinute)->Unit(benchmark::kMillisecond);

void BM_ScenarioRunnerScaling(benchmark::State& state) {
  // Eight one-minute scenarios through ScenarioRunner::run_many at various
  // --jobs.
  // On a multi-core host wall time should drop roughly linearly with jobs
  // until physical cores run out; results stay in submission order.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  std::vector<trace::ScenarioConfig> configs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    trace::ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.duration = sec(60);
    cfg.deployment.road_length_m = 1500;
    cfg.deployment.aps_per_km = 10;
    cfg.spider.mode = core::OperationMode::single(6);
    configs.push_back(cfg);
  }
  const trace::ScenarioRunner runner({.jobs = jobs});
  std::uint64_t popped = 0;
  for (auto _ : state) {
    const auto results = runner.run_many(configs);
    for (const auto& r : results) popped += r.perf.events_popped;
    benchmark::DoNotOptimize(results.front().total_bytes);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int>(configs.size()));
  state.counters["events_popped"] =
      static_cast<double>(popped) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ScenarioRunnerScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// --smoke: a fixed-work self-check of the hot-path engineering, suitable
// for ctest (label perf-smoke) and sanitizer builds. Prints and writes
// BENCH_hotpath.json with throughput plus the allocation counters, and
// fails (non-zero exit) if the handle-free path reports any per-event heap
// allocation — the zero-allocation contract, enforced in CI rather than
// eyeballed in profiles. Throughput numbers are informational: sanitizer
// builds run the same check at a tenth the speed and still pass.
// ---------------------------------------------------------------------

int run_smoke(const char* json_path) {
  using Clock = std::chrono::steady_clock;
  bool ok = true;

  // 1. Timer churn (cancellable path): handles must index the slab, never
  //    allocate per event; heavy cancellation must stay compacted.
  sim::EventQueue q;
  constexpr int kChurnIters = 20000;
  const auto churn_t0 = Clock::now();
  std::int64_t t = 0;
  for (int iter = 0; iter < kChurnIters; ++iter) {
    for (int i = 0; i < 256; ++i) {
      auto h = q.push(Time{t + 1000 + i}, [] {});
      if (i % 8 != 0) h.cancel();
    }
    while (!q.empty()) q.pop_and_run();
    t += 2000;
  }
  const double churn_secs =
      std::chrono::duration<double>(Clock::now() - churn_t0).count();
  const auto churn_perf = q.perf();
  const double churn_events_per_sec = kChurnIters * 256.0 / churn_secs;
  if (churn_perf.callbacks_heap != 0) {
    std::fprintf(stderr,
                 "FAIL: timer-churn scheduled %llu callbacks on the heap "
                 "(inline capacity regression)\n",
                 static_cast<unsigned long long>(churn_perf.callbacks_heap));
    ok = false;
  }

  // 2. Medium fan-out (handle-free path): per-receiver deliveries must ride
  //    the inline buffer with zero handles and zero heap callbacks.
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation({.base_loss = 0.0}), Rng(1));
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (int i = 0; i < 128; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        medium, wire::MacAddress(i + 1),
        [i] { return Position{static_cast<double>(i), 0}; }));
    radios.back()->tune(6);
  }
  sim.run_until(msec(10));
  const std::uint64_t popped_before = sim.perf().events_popped;
  // Snapshot after setup: the tunes above used cancellable control events
  // (handles by design). From here on, only the medium's delivery path
  // runs, and it must not allocate a single handle.
  const std::uint64_t handles_before = sim.perf().handles_allocated;
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.dst = wire::MacAddress::broadcast();
  f.size_bytes = 100;
  constexpr int kFanoutIters = 4000;
  const auto fan_t0 = Clock::now();
  for (int iter = 0; iter < kFanoutIters; ++iter) {
    wire::Frame frame = f;
    medium.transmit(*radios[0], std::move(frame));
    sim.run_until(sim.now() + msec(2));
  }
  const double fan_secs =
      std::chrono::duration<double>(Clock::now() - fan_t0).count();
  sim::PerfCounters fan_perf = sim.perf();
  fan_perf.merge_shard(medium.perf());
  const double fanout_per_sec =
      static_cast<double>(fan_perf.frames_fanout) / fan_secs;
  if (fan_perf.callbacks_heap != 0) {
    std::fprintf(stderr,
                 "FAIL: fan-out scheduled %llu callbacks on the heap "
                 "(delivery record outgrew the inline buffer)\n",
                 static_cast<unsigned long long>(fan_perf.callbacks_heap));
    ok = false;
  }
  if (fan_perf.handles_allocated != handles_before) {
    std::fprintf(stderr,
                 "FAIL: fan-out allocated %llu handles (deliveries must use "
                 "the handle-free path)\n",
                 static_cast<unsigned long long>(fan_perf.handles_allocated -
                                                 handles_before));
    ok = false;
  }
  if (medium.fanout_scheduled() == 0 ||
      sim.perf().events_popped == popped_before) {
    std::fprintf(stderr, "FAIL: fan-out smoke delivered nothing\n");
    ok = false;
  }

  std::printf("hotpath smoke: %s\n", ok ? "PASS" : "FAIL");
  std::printf("  timer churn      %.3g events/s  (callbacks_heap=%llu)\n",
              churn_events_per_sec,
              static_cast<unsigned long long>(churn_perf.callbacks_heap));
  std::printf(
      "  medium fan-out   %.3g deliveries/s  (handles=%llu heap_cbs=%llu)\n",
      fanout_per_sec,
      static_cast<unsigned long long>(fan_perf.handles_allocated -
                                      handles_before),
      static_cast<unsigned long long>(fan_perf.callbacks_heap));

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"events_per_sec\": %.1f,\n"
                 "  \"fanout_per_sec\": %.1f,\n"
                 "  \"churn_callbacks_heap\": %llu,\n"
                 "  \"churn_handles_allocated\": %llu,\n"
                 "  \"fanout_callbacks_heap\": %llu,\n"
                 "  \"fanout_handles_allocated\": %llu,\n"
                 "  \"fanout_scheduled\": %llu,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 churn_events_per_sec, fanout_per_sec,
                 static_cast<unsigned long long>(churn_perf.callbacks_heap),
                 static_cast<unsigned long long>(churn_perf.handles_allocated),
                 static_cast<unsigned long long>(fan_perf.callbacks_heap),
                 static_cast<unsigned long long>(fan_perf.handles_allocated -
                                                 handles_before),
                 static_cast<unsigned long long>(fan_perf.frames_fanout),
                 ok ? "true" : "false");
    std::fclose(out);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (smoke) return run_smoke(json_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
