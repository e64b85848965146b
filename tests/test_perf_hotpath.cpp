// Hot-path memory model tests (see DESIGN.md §8): the inline-callback
// wrapper, the zero-allocation event path, the channel-indexed medium with
// its generation-stamped slot registry, and a fixed-seed determinism pin
// guarding the byte-identity contract of the engine refactor.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <vector>

#include "core/op_mode.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/experiment.hpp"
#include "util/inline_function.hpp"

namespace spider {
namespace {

using InlineFn = util::InlineFunction<64>;

phy::PropagationConfig lossless_config() {
  phy::PropagationConfig c;
  c.base_loss = 0.0;
  c.good_radius_m = 100.0;
  c.range_m = 100.0;
  return c;
}

wire::Frame broadcast_frame(std::uint32_t size_bytes = 100) {
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.dst = wire::MacAddress::broadcast();
  f.size_bytes = size_bytes;
  return f;
}

// ---------------------------------------------------------------- InlineFunction

TEST(InlineFunction, SmallCaptureStaysInline) {
  int hits = 0;
  InlineFn fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.heap_allocated());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, CapacityBoundaryStaysInline) {
  // Exactly 64 bytes of capture must still fit inline.
  std::array<char, 64> payload{};
  payload[0] = 42;
  InlineFn fn([payload] { EXPECT_EQ(payload[0], 42); });
  EXPECT_FALSE(fn.heap_allocated());
  fn();
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeap) {
  std::array<char, 128> big{};
  big[100] = 7;
  int seen = 0;
  InlineFn fn([big, &seen] { seen = big[100]; });
  EXPECT_TRUE(fn.heap_allocated());
  fn();
  EXPECT_EQ(seen, 7);
}

TEST(InlineFunction, MoveOnlyTargetSupported) {
  auto owned = std::make_unique<int>(31);
  int seen = 0;
  InlineFn fn([p = std::move(owned), &seen] { seen = *p; });
  InlineFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT: testing moved-from state
  moved();
  EXPECT_EQ(seen, 31);
}

TEST(InlineFunction, DestroysInlineTarget) {
  auto tracker = std::make_shared<int>(0);
  EXPECT_EQ(tracker.use_count(), 1);
  {
    InlineFn fn([tracker] { (void)tracker; });
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(InlineFunction, DestroysHeapTarget) {
  auto tracker = std::make_shared<int>(0);
  std::array<char, 128> pad{};
  {
    InlineFn fn([tracker, pad] { (void)pad; });
    EXPECT_TRUE(fn.heap_allocated());
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(InlineFunction, MoveTransfersOwnershipExactlyOnce) {
  auto tracker = std::make_shared<int>(0);
  InlineFn a([tracker] { (void)tracker; });
  EXPECT_EQ(tracker.use_count(), 2);
  InlineFn b(std::move(a));
  EXPECT_EQ(tracker.use_count(), 2);  // relocated, not duplicated
  InlineFn c;
  c = std::move(b);
  EXPECT_EQ(tracker.use_count(), 2);
  c = InlineFn{};  // assignment resets, destroying the target
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(InlineFunction, TrivialCaptureRelocatesByMemcpy) {
  // Pointer+POD captures take the null-relocate memcpy path in steal();
  // behaviour must match the generic relocation path exactly.
  static_assert(InlineFn::fits_inline<int*>);
  int value = 5;
  int* ptr = &value;
  InlineFn fn([ptr] { *ptr += 10; });
  InlineFn moved(std::move(fn));
  moved();
  EXPECT_EQ(value, 15);
}

// ------------------------------------------------------------- zero-allocation

TEST(EventQueue, HandleFreePathAllocatesNoHandlesOrHeapCallbacks) {
  sim::Simulator s;
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    s.post(usec(i), [&ran] { ++ran; });
  }
  s.run_all();
  EXPECT_EQ(ran, 100);
  const sim::PerfCounters p = s.perf();
  EXPECT_EQ(p.events_popped, 100u);
  EXPECT_EQ(p.handles_allocated, 0u);
  EXPECT_EQ(p.callbacks_heap, 0u);
}

TEST(EventQueue, CancellablePathCountsHandlesButNotHeapCallbacks) {
  // One cancelled timer of two, then a retransmit-timer churn in which 7 of
  // every 8 handles are cancelled before they fire: every push allocates a
  // handle, and none may spill its callback to the heap.
  struct Case {
    int rounds;
    int per_round;
    int keep_every;  ///< push i of a round survives iff i % keep_every == 0
  };
  for (const Case c : {Case{1, 2, 2}, Case{64, 256, 8}}) {
    sim::EventQueue q;
    std::int64_t t = 0;
    for (int round = 0; round < c.rounds; ++round) {
      for (int i = 0; i < c.per_round; ++i) {
        auto h = q.push(Time{t + 1000 + i}, [] {});
        if (i % c.keep_every != 0) h.cancel();
      }
      while (!q.empty()) q.pop_and_run();
      t += 2000;
    }
    const auto pushed = static_cast<std::uint64_t>(c.rounds * c.per_round);
    const sim::PerfCounters p = q.perf();
    EXPECT_EQ(p.handles_allocated, pushed) << c.per_round;
    EXPECT_EQ(p.callbacks_heap, 0u) << c.per_round;
    EXPECT_EQ(p.events_cancelled, pushed - pushed / c.keep_every)
        << c.per_round;
  }
}

TEST(EventQueue, OversizedCaptureIsCountedNotLost) {
  sim::EventQueue q;
  std::array<char, 100> big{};
  big[0] = 1;
  int seen = 0;
  q.push_nocancel(usec(1), [big, &seen] { seen = big[0]; });
  q.pop_and_run();
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(q.perf().callbacks_heap, 1u);
}

TEST(Medium, DeliveryRecordFitsInlineBuffer) {
  // The medium's per-receiver delivery capture must never outgrow the
  // inline buffer — that would silently reintroduce a malloc per frame —
  // and deliveries ride the handle-free path, so the medium's fan-out of a
  // broadcast, sent over and over, allocates no event handle once the
  // radios are tuned.
  for (const int receivers : {1, 128}) {
    sim::Simulator s;
    phy::Medium medium(s, phy::Propagation(lossless_config()), Rng(1));
    phy::Radio tx(medium, wire::MacAddress(1), [] { return Position{0, 0}; });
    tx.tune(6);
    std::vector<std::unique_ptr<phy::Radio>> rxs;
    for (int i = 0; i < receivers; ++i) {
      rxs.push_back(std::make_unique<phy::Radio>(
          medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 2), [i] {
            return Position{10.0 + i % 16, static_cast<double>(i / 16)};
          }));
      rxs.back()->tune(6);
    }
    s.run_until(msec(50));
    // The tunes above used cancellable control events (handles by design).
    const std::uint64_t handles_after_setup = s.perf().handles_allocated;
    constexpr int kSends = 50;
    for (int i = 0; i < kSends; ++i) {
      medium.transmit(tx, broadcast_frame());
      s.run_until(s.now() + msec(5));
    }
    const auto deliveries = static_cast<std::uint64_t>(kSends * receivers);
    EXPECT_EQ(medium.fanout_scheduled(), deliveries) << receivers;
    EXPECT_EQ(medium.frames_delivered(), deliveries) << receivers;
    EXPECT_EQ(s.perf().handles_allocated, handles_after_setup) << receivers;
    EXPECT_EQ(s.perf().callbacks_heap, 0u) << receivers;
  }
}

// ------------------------------------------------------------- channel index

TEST(Medium, ChannelIndexSurvivesChurn) {
  // Radios repeatedly retune and one detaches/reattaches each round; after
  // every churn step a broadcast must reach exactly the same-channel
  // listeners — the cohort index may never go stale.
  sim::Simulator s;
  phy::Medium medium(s, phy::Propagation(lossless_config()), Rng(1));
  std::vector<int> heard;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<wire::Channel> channel_of(8, 1);  // radios start on channel 1
  for (int i = 0; i < 8; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [i] { return Position{static_cast<double>(i), 0}; }));
    radios.back()->set_receiver(
        [&heard, i](const wire::Frame&) { heard.push_back(i); });
  }
  const wire::Channel plan[][8] = {
      {1, 6, 6, 11, 6, 1, 11, 6},
      {6, 6, 1, 6, 11, 6, 6, 1},
      {11, 1, 6, 6, 6, 11, 1, 6},
  };
  for (const auto& channels : plan) {
    for (int i = 0; i < 8; ++i) {
      if (channel_of[i] != channels[i]) {
        radios[i]->tune(channels[i]);
        channel_of[i] = channels[i];
      }
    }
    s.run_until(s.now() + msec(20));  // let all retunes settle

    // Churn the registry itself: detach and reattach one radio.
    radios[3] = std::make_unique<phy::Radio>(
        medium, wire::MacAddress(4), [] { return Position{3, 0}; });
    radios[3]->set_receiver(
        [&heard](const wire::Frame&) { heard.push_back(3); });
    radios[3]->tune(channels[3]);
    s.run_until(s.now() + msec(20));

    for (int sender = 0; sender < 8; ++sender) {
      heard.clear();
      radios[sender]->send(broadcast_frame());
      s.run_until(s.now() + msec(5));
      const std::set<int> audience(heard.begin(), heard.end());
      std::set<int> expected;
      for (int i = 0; i < 8; ++i) {
        if (i != sender && channel_of[i] == channel_of[sender]) {
          expected.insert(i);
        }
      }
      EXPECT_EQ(audience, expected) << "sender " << sender;
    }
  }
}

// --------------------------------------------------------- generation stamps

TEST(Medium, GenerationStampKillsDeliveryToSlotReuser) {
  // A frame is in flight to radio A; A is destroyed and a new radio B
  // reuses A's registry slot, tunes to the same channel, and is listening
  // when the frame arrives. Only the generation stamp tells B from A — a
  // slot-index (or pointer) comparison alone would mis-deliver: classic ABA.
  sim::Simulator s;
  phy::Medium medium(s, phy::Propagation(lossless_config()), Rng(1));
  phy::Radio tx(medium, wire::MacAddress(1), [] { return Position{0, 0}; });
  auto a = std::make_unique<phy::Radio>(medium, wire::MacAddress(2),
                                        [] { return Position{10, 0}; });
  tx.tune(6);
  a->tune(6);
  s.run_until(msec(50));

  // ~14.7 ms of airtime at 11 Mbps: long enough to tear down A and fully
  // retune B before the frame lands.
  tx.send(broadcast_frame(20000));
  s.run_until(s.now() + msec(1));

  a.reset();  // slot freed; LIFO free list hands it to the next attach
  auto b = std::make_unique<phy::Radio>(medium, wire::MacAddress(3),
                                        [] { return Position{10, 0}; });
  int b_heard = 0;
  b->set_receiver([&b_heard](const wire::Frame&) { ++b_heard; });
  b->tune(6);  // 4 ms switch — done long before the frame arrives
  s.run_until(s.now() + msec(10));
  ASSERT_TRUE(b->listening());
  ASSERT_EQ(b->channel(), 6);

  s.run_until(sec(1));
  EXPECT_EQ(b_heard, 0);
  EXPECT_EQ(medium.frames_delivered(), 0u);
  EXPECT_EQ(medium.frames_dropped_at_rx(), 1u);
}

// ------------------------------------------------------------ determinism pin

TEST(Determinism, FixedSeedScenarioIsBitStable) {
  // Golden values recorded on the pre-refactor engine; the engine overhaul
  // (inline callbacks, indexed heap, channel cohorts, pooled frame bodies)
  // must not move a single byte of simulation output. events_popped pins
  // the event schedule itself, not just the end-to-end metrics.
  trace::ScenarioConfig cfg;
  cfg.seed = 1;
  cfg.duration = sec(120);
  cfg.deployment.road_length_m = 1500;
  cfg.deployment.aps_per_km = 10;
  cfg.spider.mode = core::OperationMode::single(6);
  const auto spider_run = trace::run_scenario(cfg);
  EXPECT_EQ(spider_run.total_bytes, 24709040u);
  EXPECT_EQ(spider_run.join_log.size(), 5u);
  EXPECT_EQ(spider_run.perf.events_popped, 217920u);

  trace::ScenarioConfig stock_cfg = cfg;
  stock_cfg.driver = trace::DriverKind::kStock;
  const auto stock_run = trace::run_scenario(stock_cfg);
  EXPECT_EQ(stock_run.total_bytes, 2931680u);
  EXPECT_EQ(stock_run.join_log.size(), 3u);
  EXPECT_EQ(stock_run.perf.events_popped, 60411u);
}

}  // namespace
}  // namespace spider
