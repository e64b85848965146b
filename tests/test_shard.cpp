#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/tracer.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "phy/shard_fabric.hpp"
#include "phy/shard_link.hpp"
#include "sim/cancel.hpp"
#include "sim/perf.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "trace/experiment.hpp"
#include "trace/export.hpp"

namespace spider::phy {
namespace {

using sim::ShardedSimulator;
using sim::Simulator;

PropagationConfig zero_loss(double range) {
  PropagationConfig c;
  c.base_loss = 0.0;
  c.good_radius_m = range;  // no gray zone: delivery is deterministic
  c.range_m = range;
  return c;
}

// ---------------------------------------------------------------------
// ShardedSimulator: the conservative lockstep protocol in isolation.
// ---------------------------------------------------------------------

TEST(ShardedSimulator, RunsExactWindowCount) {
  Simulator a, b;
  ShardedSimulator bus({&a, &b}, usec(100));
  EXPECT_TRUE(bus.run_until(msec(1)));
  EXPECT_EQ(bus.windows_run(), 10u);
  EXPECT_EQ(a.now(), msec(1));
  EXPECT_EQ(b.now(), msec(1));
}

TEST(ShardedSimulator, CrossShardThunkAppliesAtNextWindowBoundary) {
  Simulator a, b;
  ShardedSimulator bus({&a, &b}, usec(100));
  Time applied_at = Time{-1};
  a.post_at(usec(150), [&] {
    bus.send(0, 1, [&] { applied_at = b.now(); });
  });
  EXPECT_TRUE(bus.run_until(msec(1)));
  // Sent while executing window 2 = (100, 200]; drained once both shards
  // reached the 200us boundary.
  EXPECT_EQ(applied_at, usec(200));
  EXPECT_EQ(bus.messages_sent(), 1u);
}

TEST(ShardedSimulator, SendDuringDrainLandsOneWindowLater) {
  Simulator a, b;
  ShardedSimulator bus({&a, &b}, usec(100));
  Time echo_at = Time{-1};
  a.post_at(usec(150), [&] {
    bus.send(0, 1, [&] {
      // Runs inside shard 1's drain of window 2; the reply targets the
      // next parity and must apply at the *following* boundary.
      bus.send(1, 0, [&] { echo_at = a.now(); });
    });
  });
  EXPECT_TRUE(bus.run_until(msec(1)));
  EXPECT_EQ(echo_at, usec(300));
  EXPECT_EQ(bus.messages_sent(), 2u);
}

TEST(ShardedSimulator, DrainInitialLoopsUntilQuiescent) {
  Simulator a, b;
  ShardedSimulator bus({&a, &b}, usec(100));
  bool chained = false;
  bus.send(0, 1, [&] {
    bus.send(1, 0, [&] { chained = true; });
  });
  bus.drain_initial();
  EXPECT_TRUE(chained);
}

TEST(ShardedSimulator, CancelStopsTheWholeFormation) {
  Simulator a, b;
  ShardedSimulator bus({&a, &b}, usec(100));
  sim::CancelToken token;
  a.post_at(usec(450), [&] { token.request_cancel(); });
  EXPECT_FALSE(bus.run_until(sec(1), &token));
  // Stopped at a window boundary shortly after the trip, not at the
  // 10000-window deadline.
  EXPECT_LT(bus.windows_run(), 30u);
}

TEST(ShardedSimulator, SingleShardRunsInline) {
  Simulator a;
  ShardedSimulator bus({&a}, usec(100));
  bool ran = false;
  a.post_at(usec(42), [&] { ran = true; });
  EXPECT_TRUE(bus.run_until(msec(1)));
  EXPECT_TRUE(ran);
  EXPECT_EQ(a.now(), msec(1));
}

TEST(ShardedSimulator, WindowHookRunsEveryWindow) {
  Simulator a, b;
  ShardedSimulator bus({&a, &b}, usec(100));
  int hooks = 0;
  bus.set_window_hook(0, [&] { ++hooks; });
  EXPECT_TRUE(bus.run_until(msec(1)));
  EXPECT_EQ(hooks, 10);
}

// The rendezvous barrier under stress: more shards than this process has
// CPUs (8 at most), and per-window work that differs by shard and window,
// so nearly every crossing has stragglers and waiters must yield or park.

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

struct StressFormation {
  static constexpr Time kWindow = usec(100);
  const int width = std::min(8, usable_cpus() + 1);
  std::vector<std::unique_ptr<Simulator>> sims;
  std::unique_ptr<ShardedSimulator> bus;
  std::vector<int> hooks;                  ///< [s]: written by shard s only
  std::vector<std::vector<int>> received;  ///< [to][from]: by shard `to`
  std::vector<int> echoes;                 ///< [s]: by shard s only
  std::vector<int> late;                   ///< [s]: off-boundary applies

  StressFormation()
      : hooks(static_cast<std::size_t>(width), 0),
        received(static_cast<std::size_t>(width),
                 std::vector<int>(static_cast<std::size_t>(width), 0)),
        echoes(static_cast<std::size_t>(width), 0),
        late(static_cast<std::size_t>(width), 0) {
    std::vector<Simulator*> raw;
    for (int s = 0; s < width; ++s) {
      sims.push_back(std::make_unique<Simulator>());
      raw.push_back(sims.back().get());
    }
    bus = std::make_unique<ShardedSimulator>(raw, kWindow);
    for (int s = 0; s < width; ++s) {
      bus->set_window_hook(
          s, [this, s] { ++hooks[static_cast<std::size_t>(s)]; });
      sims[static_cast<std::size_t>(s)]->post_at(kWindow / 2,
                                                  [this, s] { tick(s); });
    }
  }

  static void spin_for(std::chrono::microseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
  }

  /// Mid-window on shard s: uneven busy work, then one message to every
  /// other shard. Each message must apply at the very next boundary; every
  /// third one answers from inside the drain, and that echo must apply one
  /// boundary later still.
  void tick(int s) {
    Simulator& sim = *sims[static_cast<std::size_t>(s)];
    const auto k = sim.now().count() / kWindow.count() + 1;  // window index
    spin_for(std::chrono::microseconds(((s + k) % 4) * 15));
    for (int to = 0; to < width; ++to) {
      if (to == s) continue;
      bus->send(s, to, [this, s, to, k] {
        const auto t = static_cast<std::size_t>(to);
        ++received[t][static_cast<std::size_t>(s)];
        if (sims[t]->now() != kWindow * k) ++late[t];
        if (k % 3 != 0) return;
        bus->send(to, s, [this, s, k] {
          const auto back = static_cast<std::size_t>(s);
          ++echoes[back];
          if (sims[back]->now() != kWindow * (k + 1)) ++late[back];
        });
      });
    }
    sim.post_at(sim.now() + kWindow, [this, s] { tick(s); });
  }
};

TEST(ShardedSimulator, OversubscribedUnevenFormationStaysInLockstep) {
  StressFormation f;
  const int windows = 300;
  ASSERT_TRUE(f.bus->run_until(StressFormation::kWindow * windows));
  EXPECT_EQ(f.bus->windows_run(), static_cast<std::uint64_t>(windows));
  const int peers = f.width - 1;
  // Ticks in window w send at w's boundary; the last window's echoes are
  // still in flight when the run ends.
  const int echo_windows = windows / 3;
  for (int s = 0; s < f.width; ++s) {
    const auto i = static_cast<std::size_t>(s);
    EXPECT_EQ(f.sims[i]->now(), StressFormation::kWindow * windows);
    EXPECT_EQ(f.hooks[i], windows) << "shard " << s;
    for (int from = 0; from < f.width; ++from) {
      EXPECT_EQ(f.received[i][static_cast<std::size_t>(from)],
                from == s ? 0 : windows)
          << "shard " << s << " from " << from;
    }
    EXPECT_EQ(f.late[i], 0) << "shard " << s;
  }
  // Every echo but the final window's (sent while draining the last
  // boundary) applied exactly once; drain_final flushes the rest.
  int echoes = 0;
  for (int e : f.echoes) echoes += e;
  EXPECT_EQ(echoes, f.width * peers * (echo_windows - (windows % 3 == 0)));
  f.bus->drain_final();
  echoes = 0;
  for (int e : f.echoes) echoes += e;
  EXPECT_EQ(echoes, f.width * peers * echo_windows);
  EXPECT_EQ(f.bus->messages_sent(), static_cast<std::uint64_t>(
                                        f.width * peers *
                                        (windows + echo_windows)));
}

TEST(ShardedSimulator, OversubscribedUnevenFormationCancelsTogether) {
  // Two ways to trip the formation's one token: an explicit cancel from
  // inside one shard mid-run, and an armed deadline that has already
  // passed, which every shard trips concurrently on its entry poll.
  for (const bool expired_deadline : {false, true}) {
    SCOPED_TRACE(expired_deadline ? "expired deadline" : "cancel");
    StressFormation f;
    sim::CancelToken token;
    if (expired_deadline) {
      token.arm_deadline_after(std::chrono::nanoseconds(-1));
    } else {
      f.sims.back()->post_at(usec(4550), [&] { token.request_cancel(); });
    }
    EXPECT_FALSE(f.bus->run_until(sec(1), &token));
    EXPECT_EQ(token.reason(), expired_deadline
                                  ? sim::CancelReason::kDeadlineExceeded
                                  : sim::CancelReason::kCancelled);
    // Stopped at a window boundary shortly after the trip, not at the
    // 10000-window deadline, and every shard left at the same boundary: no
    // shard ran a hook (or drained) for a window the others abandoned.
    EXPECT_LT(f.bus->windows_run(), 100u);
    for (int s = 0; s < f.width; ++s) {
      const int hooks = f.hooks[static_cast<std::size_t>(s)];
      EXPECT_EQ(static_cast<std::uint64_t>(hooks) + 1, f.bus->windows_run())
          << "shard " << s;
    }
  }
}

TEST(ShardedSimulator, NextWindowStopVoteNeverSplitsTheFormation) {
  // The last shard to reach barrier A_k leaves it at once and votes to
  // stop on entering window k+1, while the others are still waking from
  // the barrier to read window k's vote. They must read k's vote (none),
  // not k+1's: a shard that left at k would strand the voter at A_{k+1}.
  // A 3 ms spin makes the voter the straggler, long enough for the others
  // to reach the barrier's park stage; only the voter holds a token.
  const int width = std::min(8, usable_cpus() + 1);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::unique_ptr<Simulator>> sims;
    std::vector<Simulator*> raw;
    for (int s = 0; s < width; ++s) {
      sims.push_back(std::make_unique<Simulator>());
      raw.push_back(sims.back().get());
    }
    ShardedSimulator bus(raw, usec(100));
    std::vector<int> hooks(static_cast<std::size_t>(width), 0);
    for (int s = 0; s < width; ++s) {
      bus.set_window_hook(
          s, [&hooks, s] { ++hooks[static_cast<std::size_t>(s)]; });
    }
    sim::CancelToken token;
    Simulator& voter = *sims[static_cast<std::size_t>(rep % width)];
    voter.set_cancel_token(&token);
    voter.post_at(usec(450), [&token] {
      StressFormation::spin_for(std::chrono::microseconds(3000));
      token.request_cancel();
    });
    EXPECT_FALSE(bus.run_until(sec(1)));
    // Tripped in window 5, seen on entering window 6: every shard left at
    // that boundary, after the hooks of windows 1-5.
    EXPECT_EQ(bus.windows_run(), 6u) << "rep " << rep;
    for (int s = 0; s < width; ++s) {
      EXPECT_EQ(hooks[static_cast<std::size_t>(s)], 5)
          << "rep " << rep << " shard " << s;
    }
  }
}

// ---------------------------------------------------------------------
// Partition builder.
// ---------------------------------------------------------------------

TEST(ShardPartition, SparseChannelsStayWhole) {
  // 3 + 2 + 1 APs: every channel below the 2*shards split threshold.
  std::vector<std::pair<wire::Channel, double>> sites = {
      {1, 10.0}, {1, 500.0}, {1, 900.0}, {6, 50.0}, {6, 600.0}, {11, 300.0}};
  const ShardPartition part = build_shard_partition(sites, 2, 100.0);
  EXPECT_FALSE(part.spatial());
  EXPECT_EQ(part.stripes.at(1).size(), 1u);
  EXPECT_EQ(part.stripes.at(6).size(), 1u);
  EXPECT_EQ(part.stripes.at(11).size(), 1u);
  // LPT: heaviest piece (ch1, 3 APs) lands first on shard 0; ch6 then
  // ch11 fill shard 1.
  EXPECT_EQ(part.owner(1, 0.0), 0);
  EXPECT_EQ(part.owner(1, 9999.0), 0);
  EXPECT_EQ(part.owner(6, 0.0), 1);
  EXPECT_EQ(part.owner(11, 0.0), 1);
}

TEST(ShardPartition, HeavyChannelSplitsIntoStripes) {
  std::vector<std::pair<wire::Channel, double>> sites;
  for (int i = 0; i < 8; ++i) sites.push_back({6, 100.0 * i});
  const ShardPartition part = build_shard_partition(sites, 2, 100.0);
  ASSERT_EQ(part.stripes.at(6).size(), 2u);
  EXPECT_TRUE(part.spatial());
  EXPECT_DOUBLE_EQ(part.margin_m, 100.0 + kShardSlopM);
  // Equal-count cut between AP 3 (x=300) and AP 4 (x=400).
  EXPECT_DOUBLE_EQ(part.stripes.at(6)[0].x1, 350.0);
  const int left = part.owner(6, 0.0);
  const int right = part.owner(6, 500.0);
  EXPECT_NE(left, right);
  EXPECT_EQ(part.owner(6, 349.9), left);
  EXPECT_EQ(part.owner(6, 350.0), right);

  int out[kMaxShards];
  // Within the margin of the cut: both shards must receive the frame.
  EXPECT_EQ(part.targets(6, 300.0, out), 2);
  // Deep inside a stripe: one target only.
  ASSERT_EQ(part.targets(6, 100.0, out), 1);
  EXPECT_EQ(out[0], left);
  ASSERT_EQ(part.targets(6, 600.0, out), 1);
  EXPECT_EQ(out[0], right);
}

TEST(ShardPartition, DeterministicAndFallbackOwnerStable) {
  std::vector<std::pair<wire::Channel, double>> sites;
  for (int i = 0; i < 9; ++i) sites.push_back({i % 2 ? 1 : 6, 73.0 * i});
  const ShardPartition p1 = build_shard_partition(sites, 4, 120.0);
  const ShardPartition p2 = build_shard_partition(sites, 4, 120.0);
  ASSERT_EQ(p1.stripes.size(), p2.stripes.size());
  for (const auto& [ch, stripes] : p1.stripes) {
    const auto& other = p2.stripes.at(ch);
    ASSERT_EQ(stripes.size(), other.size());
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      EXPECT_DOUBLE_EQ(stripes[i].x1, other[i].x1);
      EXPECT_EQ(stripes[i].shard, other[i].shard);
    }
  }
  // A channel no AP uses hashes to a fixed shard in range.
  const int f = p1.owner(36, 123.0);
  EXPECT_GE(f, 0);
  EXPECT_LT(f, 4);
  EXPECT_EQ(p1.owner(36, -500.0), f);
  EXPECT_EQ(p2.owner(36, 7e9), f);
}

TEST(ShardPartition, SingleShardOwnsEverything) {
  const ShardPartition part =
      build_shard_partition({{6, 0.0}, {1, 10.0}}, 1, 100.0);
  EXPECT_FALSE(part.spatial());
  EXPECT_EQ(part.owner(6, 1e6), 0);
  EXPECT_EQ(part.owner(99, -1e6), 0);
}

TEST(ShardPartition, CutDistanceIsToTheNearerCutOfTheStripe) {
  // The migration sweep's motion bound: a client cannot change owner
  // before it has covered this distance.
  ShardPartition part;
  part.shards = 3;
  const double inf = std::numeric_limits<double>::infinity();
  part.stripes[6] = {{200.0, 0}, {500.0, 1}, {inf, 2}};
  part.stripes[1] = {{inf, 0}};
  EXPECT_DOUBLE_EQ(part.cut_distance(6, 150.0), 50.0);
  EXPECT_DOUBLE_EQ(part.cut_distance(6, -1000.0), 1200.0);
  EXPECT_DOUBLE_EQ(part.cut_distance(6, 200.0), 0.0);  // on the cut
  EXPECT_DOUBLE_EQ(part.cut_distance(6, 260.0), 60.0);
  EXPECT_DOUBLE_EQ(part.cut_distance(6, 480.0), 20.0);
  EXPECT_DOUBLE_EQ(part.cut_distance(6, 900.0), 400.0);
  EXPECT_EQ(part.cut_distance(1, 42.0), inf);   // whole channel
  EXPECT_EQ(part.cut_distance(11, 42.0), inf);  // channel nobody uses
}

// ---------------------------------------------------------------------
// PerfCounters shard aggregation (exact sums, not averages).
// ---------------------------------------------------------------------

TEST(PerfCounters, MergeShardSumsTotalsAndMaxesHorizon) {
  sim::PerfCounters a, b;
  a.events_popped = 100;
  b.events_popped = 42;
  a.heap_peak = 10;
  b.heap_peak = 7;
  a.frames_tx = 3;
  b.frames_tx = 5;
  a.sim_seconds = 20.0;
  b.sim_seconds = 20.0;
  a.wall_seconds = 1.5;
  b.wall_seconds = 9.9;
  a.merge_shard(b);
  EXPECT_EQ(a.events_popped, 142u);
  // Shard heaps coexist: peaks add.
  EXPECT_EQ(a.heap_peak, 17u);
  EXPECT_EQ(a.frames_tx, 8u);
  // Shards run the same horizon in parallel: max, not sum.
  EXPECT_DOUBLE_EQ(a.sim_seconds, 20.0);
  // Wall is stamped once by the coordinator, never merged.
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.5);
}

// ---------------------------------------------------------------------
// Formation-level behaviour: shadow radios, proxies, forwarded delivery.
// ---------------------------------------------------------------------

constexpr std::uint64_t kClientMac = 0xC0'0000ULL;

bool mac_is_client(wire::MacAddress mac) { return mac.raw() >= kClientMac; }

wire::Frame tagged_frame(wire::MacAddress src, const std::string& tag,
                         std::size_t size = 1000,
                         wire::MacAddress dst = wire::MacAddress::broadcast()) {
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.src = src;
  f.dst = dst;
  f.ssid = tag;
  f.size_bytes = size;
  return f;
}

/// Two shards, two mediums, one fabric — the smallest real formation.
struct Formation {
  Simulator sim0, sim1;
  Medium m0, m1;
  ShardedSimulator bus;
  ShardFabric fabric;

  Formation(ShardPartition part, double range)
      : m0(sim0, Propagation(zero_loss(range)), Rng(11)),
        m1(sim1, Propagation(zero_loss(range)), Rng(22)),
        bus({&sim0, &sim1}, kShardLookahead),
        fabric(bus, {&m0, &m1}, std::move(part), mac_is_client) {}
};

// A retune completing while a frame is in flight must gate the forwarded
// delivery on the home shard exactly as the serial medium gates its own:
// the owner draws the loss, the home radio's listening()/channel state
// decides delivery vs drop.
TEST(ShardFabric, RetuneMidFlightGatesForwardedDelivery) {
  ShardPartition part;
  part.shards = 2;
  part.margin_m = 151.0;
  part.stripes[1] = {{std::numeric_limits<double>::infinity(), 0}};
  part.stripes[6] = {{std::numeric_limits<double>::infinity(), 1}};
  Formation w(std::move(part), 150.0);

  Radio ap6(w.m1, wire::MacAddress(0xA00001), [] { return Position{0, 0}; });
  Radio ap1(w.m0, wire::MacAddress(0xA00002), [] { return Position{20, 0}; });
  Radio client(w.m0, wire::MacAddress(kClientMac),
               [] { return Position{10, 0}; });
  w.fabric.register_client(
      0, client, [](Time) { return Position{10, 0}; }, 0.0);

  std::vector<std::string> heard;
  client.set_receiver([&](const wire::Frame& f) { heard.push_back(f.ssid); });

  ap6.tune(6);     // native retune on shard 1, completes at 4 ms
  client.tune(6);  // shadow retune: proxy moves to channel 6's owner

  w.sim1.post_at(msec(10), [&] { ap6.send(tagged_frame(ap6.mac(), "one")); });
  w.sim1.post_at(msec(20), [&] { ap6.send(tagged_frame(ap6.mac(), "two")); });
  // 100 us after "two" leaves the air the client starts a retune: it is
  // deaf when the frame lands (~20.92 ms), so the home gate must drop it.
  w.sim0.post_at(msec(20) + usec(100), [&] { client.tune(1); });
  // By 30 ms the client is live on channel 1; its proxy followed.
  w.sim0.post_at(msec(30), [&] { ap1.send(tagged_frame(ap1.mac(), "three")); });

  w.bus.drain_initial();
  EXPECT_TRUE(w.bus.run_until(msec(40)));
  w.bus.drain_final();

  ASSERT_EQ(heard.size(), 2u);
  EXPECT_EQ(heard[0], "one");
  EXPECT_EQ(heard[1], "three");
  // Forwarded outcomes are counted on the home medium, once each.
  EXPECT_EQ(w.m0.frames_delivered(), 2u);
  EXPECT_EQ(w.m0.frames_dropped_at_rx(), 1u);
  EXPECT_EQ(w.m1.frames_delivered(), 0u);
  EXPECT_EQ(w.m1.frames_dropped_at_rx(), 0u);
  EXPECT_EQ(w.m0.frames_sent() + w.m1.frames_sent(), 3u);
  EXPECT_EQ(w.m0.fanout_scheduled() + w.m1.fanout_scheduled(), 3u);
}

// A client driving across a stripe cut must be re-homed by the migration
// sweep: the far AP's frames are only exported to its own stripe, so
// hearing it at all proves the proxy moved.
TEST(ShardFabric, ProxyMigratesAcrossStripeCut) {
  ShardPartition part;
  part.shards = 2;
  part.margin_m = 121.0;
  part.stripes[6] = {{200.0, 0}, {std::numeric_limits<double>::infinity(), 1}};
  Formation w(std::move(part), 120.0);

  Radio ap_a(w.m0, wire::MacAddress(0xA00001), [] { return Position{50, 0}; });
  Radio ap_b(w.m1, wire::MacAddress(0xA00002),
             [] { return Position{350, 0}; });
  RadioConfig mobile;
  mobile.max_speed_mps = 50.0;
  const auto pos_at = [](Time t) {
    return Position{60.0 + 50.0 * to_seconds(t), 0.0};
  };
  Radio client(w.m0, wire::MacAddress(kClientMac),
               [&] { return pos_at(w.sim0.now()); }, mobile);
  w.fabric.register_client(0, client, pos_at, 50.0);

  int heard_a = 0, heard_b = 0;
  client.set_receiver([&](const wire::Frame& f) {
    (f.ssid == "A" ? heard_a : heard_b)++;
  });

  ap_a.tune(6);
  ap_b.tune(6);
  client.tune(6);

  std::function<void()> beat_a = [&] {
    ap_a.send(tagged_frame(ap_a.mac(), "A", 120));
    if (w.sim0.now() < sec(6)) w.sim0.post(msec(100), [&] { beat_a(); });
  };
  std::function<void()> beat_b = [&] {
    ap_b.send(tagged_frame(ap_b.mac(), "B", 120));
    if (w.sim1.now() < sec(6)) w.sim1.post(msec(100), [&] { beat_b(); });
  };
  w.sim0.post_at(msec(10), [&] { beat_a(); });
  w.sim1.post_at(msec(10), [&] { beat_b(); });

  w.bus.drain_initial();
  EXPECT_TRUE(w.bus.run_until(sec(6)));
  w.bus.drain_final();

  // In range of A (x <= 170) until t ~= 2.2 s -> ~22 beacons; in range of
  // B (x >= 230) from t ~= 3.4 s -> ~26. Hearing B requires the proxy to
  // have crossed to shard 1.
  EXPECT_GE(heard_a, 15);
  EXPECT_GE(heard_b, 15);
  EXPECT_GE(w.fabric.migrations(), 1u);
}

// ---------------------------------------------------------------------
// Differential fuzz: a 2-shard formation must produce exactly the serial
// medium's delivered sets on zero-loss topologies with static radios.
// ---------------------------------------------------------------------

struct SpecRadio {
  std::uint64_t mac = 0;
  wire::Channel channel = 1;
  Position pos;
  bool client = false;
  int home = 0;
};

struct SpecSend {
  std::size_t radio = 0;
  std::int64_t at_us = 0;
  std::size_t size = 0;
  std::uint64_t dst = 0;  // 0 = broadcast
};

struct Spec {
  std::vector<SpecRadio> radios;
  std::vector<SpecSend> sends;
  double range = 130.0;
};

// One delivery as seen by a receiver; sorted multisets of these are the
// equality oracle.
using Delivery = std::tuple<std::uint64_t, std::uint64_t, std::size_t, int>;

struct RunOut {
  std::vector<Delivery> delivered;
  std::uint64_t sent = 0, rx_delivered = 0, rx_dropped = 0, fanout = 0;
};

Spec make_spec(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 2654435761ULL + 17);
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(rng() % n);
  };
  Spec s;
  // Even seeds: multi-channel city block (channel partition). Odd seeds:
  // one hot channel, enough APs to force an x-stripe split at 2 shards.
  const bool multi = seed % 2 == 0;
  const wire::Channel mix[3] = {1, 6, 11};
  const std::size_t n_ap = multi ? 3 + pick(2) : 4 + pick(2);
  const std::size_t n_cl = 2 + pick(2);
  for (std::size_t i = 0; i < n_ap; ++i) {
    SpecRadio r;
    r.mac = 0xA0'0000ULL + i;
    r.channel = multi ? mix[pick(3)] : 6;
    r.pos = {static_cast<double>(pick(300)), static_cast<double>(pick(200))};
    s.radios.push_back(r);
  }
  for (std::size_t c = 0; c < n_cl; ++c) {
    SpecRadio r;
    r.mac = kClientMac + 0x100ULL * c;
    r.channel = multi ? mix[pick(3)] : 6;
    r.pos = {static_cast<double>(pick(300)), static_cast<double>(pick(200))};
    r.client = true;
    r.home = static_cast<int>(c % 2);
    s.radios.push_back(r);
  }
  for (std::size_t i = 0; i < s.radios.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      SpecSend snd;
      snd.radio = i;
      // After every assembly-time retune (4 ms) has completed.
      snd.at_us = 5000 + static_cast<std::int64_t>(pick(55000));
      snd.size = 100 + pick(1100);
      if (pick(2) == 1) {
        const std::size_t other = pick(s.radios.size());
        if (other != i) snd.dst = s.radios[other].mac;
      }
      s.sends.push_back(snd);
    }
  }
  return s;
}

wire::Frame spec_frame(const SpecRadio& from, const SpecSend& snd) {
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.src = wire::MacAddress(from.mac);
  f.dst = snd.dst == 0 ? wire::MacAddress::broadcast()
                       : wire::MacAddress(snd.dst);
  f.size_bytes = snd.size;
  return f;
}

void finish(RunOut& out) {
  std::sort(out.delivered.begin(), out.delivered.end());
}

RunOut run_serial(const Spec& spec) {
  Simulator sim;
  Medium medium(sim, Propagation(zero_loss(spec.range)), Rng(99));
  std::vector<std::unique_ptr<Radio>> radios;
  RunOut out;
  for (const SpecRadio& r : spec.radios) {
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(r.mac), [pos = r.pos] { return pos; }));
    Radio* radio = radios.back().get();
    radio->set_receiver([&out, mac = r.mac](const wire::Frame& f) {
      out.delivered.emplace_back(mac, f.src.raw(), f.size_bytes, f.channel);
    });
    if (r.channel != 1) radio->tune(r.channel);
  }
  for (const SpecSend& snd : spec.sends) {
    sim.post_at(Time{snd.at_us}, [&, snd] {
      radios[snd.radio]->send(spec_frame(spec.radios[snd.radio], snd));
    });
  }
  sim.run_until(msec(100));
  out.sent = medium.frames_sent();
  out.rx_delivered = medium.frames_delivered();
  out.rx_dropped = medium.frames_dropped_at_rx();
  out.fanout = medium.fanout_scheduled();
  finish(out);
  return out;
}

RunOut run_sharded(const Spec& spec) {
  std::vector<std::pair<wire::Channel, double>> sites;
  for (const SpecRadio& r : spec.radios) {
    if (!r.client) sites.push_back({r.channel, r.pos.x});
  }
  Formation w(build_shard_partition(sites, 2, spec.range), spec.range);
  Simulator* sims[2] = {&w.sim0, &w.sim1};
  Medium* mediums[2] = {&w.m0, &w.m1};

  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<int> shard_of;
  RunOut out;
  // Receivers fire on both shard threads; the shared log needs a lock
  // (ordering is irrelevant — finish() sorts before comparing).
  std::mutex delivered_mu;
  for (const SpecRadio& r : spec.radios) {
    const int s = r.client
                      ? r.home
                      : w.fabric.partition().owner(r.channel, r.pos.x);
    radios.push_back(std::make_unique<Radio>(
        *mediums[s], wire::MacAddress(r.mac), [pos = r.pos] { return pos; }));
    shard_of.push_back(s);
    Radio* radio = radios.back().get();
    radio->set_receiver([&out, &delivered_mu, mac = r.mac](const wire::Frame& f) {
      std::lock_guard<std::mutex> lock(delivered_mu);
      out.delivered.emplace_back(mac, f.src.raw(), f.size_bytes, f.channel);
    });
    if (r.client) {
      w.fabric.register_client(
          r.home, *radio, [pos = r.pos](Time) { return pos; }, 0.0);
    }
    if (r.channel != 1) radio->tune(r.channel);
  }
  for (const SpecSend& snd : spec.sends) {
    sims[shard_of[snd.radio]]->post_at(Time{snd.at_us}, [&, snd] {
      radios[snd.radio]->send(spec_frame(spec.radios[snd.radio], snd));
    });
  }
  w.bus.drain_initial();
  EXPECT_TRUE(w.bus.run_until(msec(100)));
  w.bus.drain_final();
  for (Medium* m : mediums) {
    out.sent += m->frames_sent();
    out.rx_delivered += m->frames_delivered();
    out.rx_dropped += m->frames_dropped_at_rx();
    out.fanout += m->fanout_scheduled();
  }
  finish(out);
  return out;
}

TEST(ShardFabric, DifferentialFuzzMatchesSerialAcross200Seeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Spec spec = make_spec(seed);
    const RunOut serial = run_serial(spec);
    const RunOut sharded = run_sharded(spec);
    ASSERT_EQ(serial.delivered, sharded.delivered) << "seed " << seed;
    ASSERT_EQ(serial.sent, sharded.sent) << "seed " << seed;
    ASSERT_EQ(serial.rx_delivered, sharded.rx_delivered) << "seed " << seed;
    ASSERT_EQ(serial.rx_dropped, sharded.rx_dropped) << "seed " << seed;
    // Every scheduled reception is accounted as delivered or dropped, on
    // both engines.
    ASSERT_EQ(serial.rx_delivered + serial.rx_dropped, serial.fanout)
        << "seed " << seed;
    ASSERT_EQ(sharded.rx_delivered + sharded.rx_dropped, sharded.fanout)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace spider::phy

// ---------------------------------------------------------------------
// Scenario plumbing: validation, determinism.
// ---------------------------------------------------------------------

namespace spider::trace {
namespace {

TEST(ShardScenario, ValidateRejectsShardMisuse) {
  ScenarioConfig cfg;
  cfg.shards = 2;
  EXPECT_TRUE(cfg.validate().empty());
  cfg.shards = phy::kMaxShards + 1;
  EXPECT_FALSE(cfg.validate().empty());
  cfg.shards = 0;
  EXPECT_FALSE(cfg.validate().empty());
  cfg.shards = -1;
  EXPECT_FALSE(cfg.validate().empty());
  // Impairments no longer pin a run to the serial engine: a synthetic
  // schedule is valid at any width (the acceptance matrix for trace-backed
  // sources is pinned in test_tracein.cpp).
  cfg.shards = 2;
  cfg.impairments.schedule.ap_blackout(sec(10), sec(1), 0);
  EXPECT_TRUE(cfg.validate().empty());
  cfg.shards = 1;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ShardScenario, ShardedRunIsDeterministicAndCompletes) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.duration = sec(20);
  cfg.clients = 2;
  cfg.shards = 2;
  cfg.deployment.road_length_m = 800.0;
  cfg.deployment.aps_per_km = 10.0;

  const ScenarioResult r1 = detail::execute_scenario(cfg, nullptr);
  const ScenarioResult r2 = detail::execute_scenario(cfg, nullptr);
  EXPECT_TRUE(r1.completed);
  EXPECT_GT(r1.total_bytes, 0u);
  EXPECT_EQ(r1.total_bytes, r2.total_bytes);
  EXPECT_EQ(r1.switches, r2.switches);
  EXPECT_EQ(r1.joins_attempted, r2.joins_attempted);
  EXPECT_EQ(r1.e2e_succeeded, r2.e2e_succeeded);
  EXPECT_DOUBLE_EQ(r1.connectivity, r2.connectivity);
  EXPECT_DOUBLE_EQ(r1.avg_throughput_kBps, r2.avg_throughput_kBps);
  EXPECT_EQ(r1.perf.events_popped, r2.perf.events_popped);
  EXPECT_EQ(r1.perf.frames_tx, r2.perf.frames_tx);
}

// Every driver must really run under the sharded engine, not merely
// reproduce itself: the sharded FatVAP kernel once never started its
// LinkManager, so at widths >= 2 it made no joins and moved no bytes while
// the serial run did both. Width 1 dispatches to the serial engine and
// must equal it exactly.
TEST(ShardScenario, EveryDriverJoinsAndMovesBytesAtEveryWidth) {
  ScenarioConfig base;
  base.seed = 3;
  base.duration = sec(15);
  base.clients = 8;
  base.speed_mps = 10.0;
  mob::CityGridConfig city;
  city.width_m = 1000.0;
  city.height_m = 1000.0;
  city.aps_per_km2 = 200.0;
  base.city = city;
  for (const DriverKind driver :
       {DriverKind::kSpider, DriverKind::kStock, DriverKind::kFatVap}) {
    ScenarioConfig cfg = base;
    cfg.driver = driver;
    const ScenarioResult serial = detail::execute_scenario(cfg, nullptr);
    for (const int shards : {1, 2, 4}) {
      cfg.shards = shards;
      const ScenarioResult r = detail::execute_scenario(cfg, nullptr);
      const std::string where = std::string(to_string(driver)) + " shards " +
                                std::to_string(shards);
      EXPECT_TRUE(r.completed) << where;
      EXPECT_GT(r.joins_attempted, 0u) << where;
      EXPECT_GT(r.total_bytes, 0u) << where;
      if (shards == 1) {
        EXPECT_EQ(r.total_bytes, serial.total_bytes) << where;
        EXPECT_EQ(r.joins_attempted, serial.joins_attempted) << where;
        EXPECT_EQ(r.e2e_succeeded, serial.e2e_succeeded) << where;
        EXPECT_EQ(r.switches, serial.switches) << where;
        EXPECT_DOUBLE_EQ(r.connectivity, serial.connectivity) << where;
        EXPECT_EQ(r.perf.events_popped, serial.perf.events_popped) << where;
        EXPECT_EQ(r.perf.frames_tx, serial.perf.frames_tx) << where;
      }
    }
  }
}

// A formation traces every shard, not only shard 0: each shard records
// into its own flight recorder (shard 0 into the caller's), the result
// keeps all of them in shard order, and the metrics merge across them.
TEST(ShardScenario, EveryShardIsTraced) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration = sec(5);
  cfg.clients = 4;
  mob::CityGridConfig city;
  city.width_m = 750.0;
  city.height_m = 750.0;
  city.aps_per_km2 = 150.0;
  cfg.city = city;
  cfg.shards = 2;
  auto tracer = std::make_shared<obs::Tracer>(
      obs::TracerConfig{.capacity = 1024, .seed = 5});
  const obs::Tracer* given = tracer.get();
  const ScenarioResult r = detail::execute_scenario(cfg, std::move(tracer));
  ASSERT_EQ(r.traces.size(), 2u);
  EXPECT_EQ(r.traces[0].get(), given);
  double recorded = 0.0;
  for (const auto& t : r.traces) {
    EXPECT_GT(t->recorded(), 0u);
    EXPECT_EQ(t->capacity(), 1024u);
    EXPECT_EQ(t->seed(), 5u);
    recorded += static_cast<double>(t->recorded());
  }
  EXPECT_DOUBLE_EQ(r.metrics.value("obs.recorded"), recorded);
  EXPECT_DOUBLE_EQ(r.metrics.value("shard.width"), 2.0);
}

TEST(ShardScenario, PerfCsvReadsTheWidthFromTheRecord) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration = sec(2);
  cfg.clients = 4;
  mob::CityGridConfig city;
  city.width_m = 750.0;
  city.height_m = 750.0;
  city.aps_per_km2 = 150.0;
  cfg.city = city;
  cfg.shards = 2;
  const ScenarioResult r = detail::execute_scenario(cfg, nullptr);
  // Untraced: the metrics export view stays empty, and the CSV reads the
  // formation width from the counter record.
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_EQ(r.perf.shards, 2u);
  std::ostringstream os;
  write_perf_csv(os, {r});
  std::istringstream lines(os.str());
  std::string header_line, row_line, extra;
  ASSERT_TRUE(std::getline(lines, header_line));
  ASSERT_TRUE(std::getline(lines, row_line));
  EXPECT_FALSE(std::getline(lines, extra));
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');) cells.push_back(cell);
    return cells;
  };
  const std::vector<std::string> header = split(header_line);
  const std::vector<std::string> row = split(row_line);
  ASSERT_EQ(header.size(), row.size());
  const auto shards_col = std::find(header.begin(), header.end(), "shards");
  ASSERT_NE(shards_col, header.end());
  EXPECT_EQ(row[static_cast<std::size_t>(shards_col - header.begin())], "2");
}

/// Two-sided p-value of the Mann–Whitney U test of `a` against `b`: the
/// normal approximation with the tie-corrected variance, which is accurate
/// for samples of ~20 or more.
double mann_whitney_p(const std::vector<double>& a,
                      const std::vector<double>& b) {
  struct Obs {
    double x;
    bool from_a;
  };
  std::vector<Obs> all;
  for (double x : a) all.push_back({x, true});
  for (double x : b) all.push_back({x, false});
  std::sort(all.begin(), all.end(),
            [](const Obs& l, const Obs& r) { return l.x < r.x; });
  // Midranks over tie groups; sum of t^3 - t feeds the variance correction.
  const double n = static_cast<double>(all.size());
  double rank_sum_a = 0.0, tie_term = 0.0;
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    while (j < all.size() && all[j].x == all[i].x) ++j;
    const double t = static_cast<double>(j - i);
    const double midrank = (static_cast<double>(i + j) + 1.0) / 2.0;
    for (std::size_t k = i; k < j; ++k) {
      if (all[k].from_a) rank_sum_a += midrank;
    }
    tie_term += t * t * t - t;
    i = j;
  }
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double u = rank_sum_a - na * (na + 1.0) / 2.0;
  const double mean = na * nb / 2.0;
  const double var =
      na * nb / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (var <= 0.0) return 1.0;  // every observation tied: no evidence
  const double z = (u - mean) / std::sqrt(var);
  return std::erfc(std::fabs(z) / std::sqrt(2.0));
}

TEST(ShardStats, MannWhitneySeparatesShiftedSamplesOnly) {
  std::vector<double> a, b, shifted;
  for (int i = 0; i < 30; ++i) {
    a.push_back(i);
    b.push_back(i + 0.5);
    shifted.push_back(i + 20.0);
  }
  EXPECT_GT(mann_whitney_p(a, b), 0.5);
  EXPECT_LT(mann_whitney_p(a, shifted), 1e-4);
  EXPECT_DOUBLE_EQ(mann_whitney_p({1, 1, 1}, {1, 1, 1}), 1.0);
}

// Sharded formations may not reproduce the serial bytes, but they must
// describe the same system: over a fixed set of seeds of a small city
// cell, the per-run throughput, join and connectivity distributions at 2
// and 4 shards must each be indistinguishable from serial under a
// two-sided Mann–Whitney test. The seeds are fixed, so the verdict is
// deterministic; alpha = 0.01 per comparison.
TEST(ShardScenario, WidthsAreStatisticallyEquivalentToSerial) {
  constexpr int kSeeds = 30;
  constexpr double kAlpha = 0.01;
  ScenarioConfig base;
  base.duration = sec(10);
  base.clients = 6;
  base.speed_mps = 10.0;
  mob::CityGridConfig city;
  city.width_m = 750.0;
  city.height_m = 750.0;
  city.aps_per_km2 = 150.0;
  base.city = city;

  struct Samples {
    std::vector<double> throughput, joins, connectivity;
  };
  std::map<int, Samples> by_width;
  for (const int shards : {1, 2, 4}) {
    Samples& out = by_width[shards];
    for (int i = 0; i < kSeeds; ++i) {
      ScenarioConfig cfg = base;
      cfg.seed = 1000 + static_cast<std::uint64_t>(i);
      cfg.shards = shards;
      const ScenarioResult r = detail::execute_scenario(cfg, nullptr);
      ASSERT_TRUE(r.completed);
      out.throughput.push_back(r.avg_throughput_kBps);
      out.joins.push_back(static_cast<double>(r.joins_attempted));
      out.connectivity.push_back(r.connectivity);
    }
  }
  const Samples& serial = by_width[1];
  for (const int shards : {2, 4}) {
    const Samples& s = by_width[shards];
    const std::string where = "shards " + std::to_string(shards);
    EXPECT_GT(mann_whitney_p(s.throughput, serial.throughput), kAlpha)
        << where << " throughput";
    EXPECT_GT(mann_whitney_p(s.joins, serial.joins), kAlpha)
        << where << " joins attempted";
    EXPECT_GT(mann_whitney_p(s.connectivity, serial.connectivity), kAlpha)
        << where << " connectivity";
  }
}

}  // namespace
}  // namespace spider::trace
