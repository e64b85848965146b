#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "mac/ap.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "phy/shard_fabric.hpp"
#include "phy/shard_link.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "trace/experiment.hpp"
#include "trace/metrics.hpp"
#include "util/random.hpp"

namespace spider {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultRouter;
using fault::FaultSchedule;
using fault::FaultSpec;
using fault::kAllAps;
using fault::partition_schedule;
using fault::RoutedFault;

// ---------------------------------------------------------------------
// partition_schedule: scope -> owner-shard routing (DESIGN.md §12).
// ---------------------------------------------------------------------

std::vector<double> draw4(Rng rng) {
  std::vector<double> out;
  for (int i = 0; i < 4; ++i) out.push_back(rng.uniform(0.0, 1.0));
  return out;
}

FaultRouter four_shard_router() {
  FaultRouter router;
  router.shards = 4;
  router.total_aps = 4;
  // ch6 striped across shards {0, 2}; every other channel whole on shard 3.
  router.channel_owners = [](int channel) {
    return channel == 6 ? std::vector<int>{0, 2} : std::vector<int>{3};
  };
  // APs round-robin over shards 0..3, one per shard.
  router.ap_owner = [](std::size_t g) {
    return std::make_pair(static_cast<int>(g % 4), 0);
  };
  return router;
}

TEST(PartitionSchedule, ChannelFaultFollowsStripeOwnersLeadCounts) {
  FaultSchedule sched;
  sched.burst_loss(sec(1), sec(2), 6, 0.9);
  sched.channel_interference(sec(3), sec(1), 11, 0.5);

  auto routed = partition_schedule(sched, Rng(42), four_shard_router());
  ASSERT_EQ(routed.size(), 4u);
  // Burst on the striped channel: both owners hold a copy, first owner is
  // the onset accountant.
  ASSERT_EQ(routed[0].size(), 1u);
  ASSERT_EQ(routed[2].size(), 1u);
  EXPECT_EQ(routed[0][0].spec.kind, FaultKind::kChannelBurstLoss);
  EXPECT_EQ(routed[2][0].spec.kind, FaultKind::kChannelBurstLoss);
  EXPECT_TRUE(routed[0][0].count_onset);
  EXPECT_FALSE(routed[2][0].count_onset);
  // Replicated copies carry the identical dwell stream.
  EXPECT_EQ(draw4(routed[0][0].rng), draw4(routed[2][0].rng));
  // Interference on a whole channel: its single owner, accounted there.
  ASSERT_EQ(routed[3].size(), 1u);
  EXPECT_EQ(routed[3][0].spec.kind, FaultKind::kChannelInterference);
  EXPECT_TRUE(routed[3][0].count_onset);
  EXPECT_TRUE(routed[1].empty());

  // The streams are the serial arm()'s fork discipline: one fork per spec
  // in schedule order off the same master.
  Rng master(42);
  Rng spec0 = master.fork();
  Rng spec1 = master.fork();
  EXPECT_EQ(draw4(routed[0][0].rng), draw4(spec0));
  EXPECT_EQ(draw4(routed[3][0].rng), draw4(spec1));
}

TEST(PartitionSchedule, EntityFaultRewritesToOwnerShardLocalIndex) {
  FaultRouter router;
  router.shards = 2;
  router.total_aps = 5;
  // Global APs 0..2 on shard 0 (local 0..2), 3..4 on shard 1 (local 0..1).
  router.ap_owner = [](std::size_t g) {
    return g < 3 ? std::make_pair(0, static_cast<int>(g))
                 : std::make_pair(1, static_cast<int>(g - 3));
  };

  FaultSchedule sched;
  sched.ap_blackout(sec(1), sec(1), 7);  // 7 % 5 = global AP 2 -> shard 0
  sched.psm_flush(sec(2), 4);            // global AP 4 -> shard 1, local 1
  auto routed = partition_schedule(sched, Rng(9), router);
  ASSERT_EQ(routed[0].size(), 1u);
  ASSERT_EQ(routed[1].size(), 1u);
  EXPECT_EQ(routed[0][0].spec.target, 2);
  EXPECT_TRUE(routed[0][0].count_onset);
  EXPECT_EQ(routed[1][0].spec.target, 1);
  EXPECT_TRUE(routed[1][0].count_onset);
}

TEST(PartitionSchedule, GlobalFaultReplicatesToApBearingShards) {
  FaultRouter router;
  router.shards = 4;
  router.total_aps = 3;
  // APs live on shards 0 and 2 only; shards 1 and 3 are AP-less.
  router.ap_owner = [](std::size_t g) {
    const int shard[3] = {2, 0, 0};
    const int local[3] = {0, 0, 1};
    return std::make_pair(shard[g], local[g]);
  };

  FaultSchedule sched;
  sched.beacon_silence(sec(1), sec(2), kAllAps);
  auto routed = partition_schedule(sched, Rng(5), router);
  ASSERT_EQ(routed[0].size(), 1u);
  ASSERT_EQ(routed[2].size(), 1u);
  EXPECT_TRUE(routed[1].empty());
  EXPECT_TRUE(routed[3].empty());
  // Target stays global (each shard applies it to all of its local APs);
  // the smallest AP-bearing shard is the accountant.
  EXPECT_LT(routed[0][0].spec.target, 0);
  EXPECT_LT(routed[2][0].spec.target, 0);
  EXPECT_TRUE(routed[0][0].count_onset);
  EXPECT_FALSE(routed[2][0].count_onset);
  EXPECT_EQ(draw4(routed[0][0].rng), draw4(routed[2][0].rng));
}

TEST(PartitionSchedule, DroppedSpecDoesNotShiftLaterStreams) {
  FaultRouter router;
  router.shards = 2;
  router.total_aps = 0;  // no APs anywhere: entity specs are dropped
  router.channel_owners = [](int) { return std::vector<int>{1}; };

  FaultSchedule sched;
  sched.ap_blackout(sec(1), sec(1), 0);  // dropped (no APs)
  sched.burst_loss(sec(2), sec(1), 6, 0.9);
  auto routed = partition_schedule(sched, Rng(31), router);
  EXPECT_TRUE(routed[0].empty());
  ASSERT_EQ(routed[1].size(), 1u);
  // The surviving spec still gets the *second* fork: skips never reshuffle
  // dwell streams (the serial injector forks before its own skip checks).
  Rng master(31);
  master.fork();  // spec 0's stream, unused
  Rng spec1 = master.fork();
  EXPECT_EQ(draw4(routed[1][0].rng), draw4(spec1));
}

}  // namespace
}  // namespace spider

// ---------------------------------------------------------------------
// ResilienceRecorder: exact-sum merge and the canonical TTR order.
// ---------------------------------------------------------------------

namespace spider::trace {
namespace {

TEST(ResilienceMerge, CountersExactSumAndTtrOrderCanonical) {
  // Serial view: one recorder sees both clients' interleaved events.
  ResilienceRecorder serial;
  serial.note_fault(sec(1));
  serial.note_link_up(sec(1), 0xA);
  serial.note_link_up(sec(1), 0xB);
  serial.note_link_down(sec(2), 0xA);  // A's outage opens
  serial.note_link_down(sec(3), 0xB);  // B's outage opens
  serial.note_link_up(sec(4), 0xB);    // B recovers: ttr 1 s at t=4
  serial.note_link_up(sec(5), 0xA);    // A recovers: ttr 3 s at t=5
  serial.note_fault(sec(6));

  // Sharded view: each client's events land on its own shard's recorder,
  // so the raw sample order differs from the serial interleave.
  ResilienceRecorder shard0, shard1;
  shard0.note_fault(sec(1));
  shard0.note_link_up(sec(1), 0xA);
  shard0.note_link_down(sec(2), 0xA);
  shard0.note_link_up(sec(5), 0xA);
  shard1.note_link_up(sec(1), 0xB);
  shard1.note_link_down(sec(3), 0xB);
  shard1.note_link_up(sec(4), 0xB);
  shard1.note_fault(sec(6));

  ResilienceRecorder total;
  total.merge(shard0);
  total.merge(shard1);
  EXPECT_EQ(total.faults_injected(), serial.faults_injected());
  EXPECT_EQ(total.outages(), serial.outages());
  EXPECT_EQ(total.recoveries(), serial.recoveries());
  EXPECT_EQ(total.last_fault_at(), serial.last_fault_at());
  // (time, client) is a total order: the merged vector equals the serial
  // one byte for byte even though the merge concatenated per-shard runs.
  EXPECT_EQ(total.time_to_recover().samples(),
            serial.time_to_recover().samples());
  const std::vector<double> expect = {1.0, 3.0};
  EXPECT_EQ(serial.time_to_recover().samples(), expect);
}

TEST(ResilienceMerge, SimultaneousRecoveriesTieBreakOnClientId) {
  ResilienceRecorder a, b;
  // Clients 5 (shard a) and 3 (shard b) recover at the same instant with
  // different outage lengths; client id orders the tie.
  a.note_link_up(sec(1), 5);
  a.note_link_down(sec(2), 5);
  a.note_link_up(sec(6), 5);  // ttr 4 s
  b.note_link_up(sec(1), 3);
  b.note_link_down(sec(4), 3);
  b.note_link_up(sec(6), 3);  // ttr 2 s

  ResilienceRecorder total;
  total.merge(a);  // 5's sample concatenates first...
  total.merge(b);
  const std::vector<double> expect = {2.0, 4.0};  // ...but 3 sorts first
  EXPECT_EQ(total.time_to_recover().samples(), expect);
}

}  // namespace
}  // namespace spider::trace

// ---------------------------------------------------------------------
// Differential harness: real APs + fault injectors on both engines.
// ---------------------------------------------------------------------

namespace spider::phy {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultRouter;
using fault::FaultSchedule;
using fault::kAllAps;
using mac::AccessPoint;
using mac::ApConfig;
using sim::ShardedSimulator;
using sim::Simulator;

constexpr std::uint64_t kClientMac = 0xC0'0000ULL;
constexpr std::uint64_t kApMac = 0xA0'0000ULL;
constexpr Time kHorizon = msec(400);

PropagationConfig zero_loss(double range) {
  PropagationConfig c;
  c.base_loss = 0.0;
  c.good_radius_m = range;  // no gray zone: distance loss is 0 everywhere
  c.range_m = range;
  return c;
}

bool mac_is_client(wire::MacAddress mac) { return mac.raw() >= kClientMac; }

ApConfig fuzz_ap_config(wire::Channel channel) {
  ApConfig c;
  c.channel = channel;
  // Dense beacons so a 400 ms horizon sees ~20 per AP; jitter keeps beacon
  // times off every deterministic grid (no event-tie ambiguity).
  c.beacon_interval = msec(20);
  c.beacon_jitter = msec(2);
  return c;
}

struct FuzzAp {
  std::uint64_t mac = 0;
  wire::Channel channel = 6;
  Position pos;
};

struct FuzzClient {
  std::uint64_t mac = 0;
  wire::Channel channel = 6;
  Position pos;
};

struct FuzzSend {
  std::size_t client = 0;
  std::int64_t at_us = 0;
  std::size_t size = 0;
  std::uint64_t dst = 0;  // 0 = broadcast
};

struct FuzzSpec {
  std::vector<FuzzAp> aps;
  std::vector<FuzzClient> clients;
  std::vector<FuzzSend> sends;
  FaultSchedule schedule;
  /// Faults of every kind that the null-network harness actually fires
  /// (needs_network kinds are skipped identically by both engines).
  std::uint64_t expected_onsets = 0;
  double range = 130.0;
};

/// Random mixed-scope fault timelines over a random AP/client topology.
///
/// Two deliberate constraints keep byte-equality exact under conservative
/// sync rather than merely probable:
///  - channel faults target only channels with < 4 APs (never striped at
///    widths 2 or 4) or an AP-less channel, so every frame on a faulted
///    channel is decided on the medium that owns the whole channel at the
///    sender's own timestamp — cross-shard injections decided up to one
///    lookahead window after t0 could otherwise read an impairment edge
///    the serial engine had not yet applied (the directed striped-channel
///    test below covers stripes with edges placed off the export paths);
///  - client (shadow) sends quiesce before the first fault onset for the
///    same reason; AP beacons, which are native transmits decided at t0,
///    carry all in-fault traffic.
FuzzSpec make_fuzz_spec(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 2654435761ULL + 29);
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(rng() % n);
  };
  FuzzSpec s;

  // Odd seeds pile 4-6 APs onto channel 6 (striped at width 2); side
  // channels 1/11 keep < 4 APs so channel faults on them never stripe.
  const bool hot = seed % 2 == 1;
  const std::size_t n6 = hot ? 4 + pick(3) : pick(4);
  const std::size_t n1 = pick(4);
  const std::size_t n11 = pick(4);
  const auto add_ap = [&](wire::Channel ch) {
    FuzzAp ap;
    ap.mac = kApMac + s.aps.size();
    ap.channel = ch;
    ap.pos = {static_cast<double>(pick(600)), static_cast<double>(pick(150))};
    s.aps.push_back(ap);
  };
  for (std::size_t i = 0; i < n6; ++i) add_ap(6);
  for (std::size_t i = 0; i < n1; ++i) add_ap(1);
  for (std::size_t i = 0; i < n11; ++i) add_ap(11);
  while (s.aps.size() < 2) add_ap(6);

  const wire::Channel mix[3] = {1, 6, 11};
  const std::size_t n_cl = 2 + pick(2);
  for (std::size_t c = 0; c < n_cl; ++c) {
    FuzzClient cl;
    cl.mac = kClientMac + 0x100ULL * c;
    cl.channel = mix[pick(3)];
    cl.pos = {static_cast<double>(pick(600)), static_cast<double>(pick(150))};
    s.clients.push_back(cl);
  }

  // Shadow sends live in [5 ms, 35 ms]; the first fault lands at >= 40 ms.
  for (std::size_t c = 0; c < s.clients.size(); ++c) {
    for (int k = 0; k < 2; ++k) {
      FuzzSend snd;
      snd.client = c;
      snd.at_us = 5000 + static_cast<std::int64_t>(pick(30000));
      snd.size = 100 + pick(700);
      if (pick(2) == 1) snd.dst = s.aps[pick(s.aps.size())].mac;
      s.sends.push_back(snd);
    }
  }

  const wire::Channel faultable[3] = {1, 11, 3};  // ch3: no AP, fallback owner
  const std::size_t n_faults = 3 + pick(3);
  for (std::size_t f = 0; f < n_faults; ++f) {
    const Time at = usec(40000 + static_cast<std::int64_t>(pick(250000)));
    const Time dur = usec(20000 + static_cast<std::int64_t>(pick(150000)));
    const int ap = static_cast<int>(pick(s.aps.size() * 2));  // mod exercised
    switch (pick(10)) {
      case 0:
        s.schedule.burst_loss(at, dur, faultable[pick(3)], 1.0,
                              msec(20 + pick(60)), msec(20 + pick(60)));
        ++s.expected_onsets;
        break;
      case 1:
        s.schedule.channel_interference(at, dur, faultable[pick(3)], 1.0);
        ++s.expected_onsets;
        break;
      case 2:
        s.schedule.ap_blackout(at, dur, ap);
        ++s.expected_onsets;
        break;
      case 3:
        s.schedule.ap_blackout(at, dur, kAllAps);
        ++s.expected_onsets;
        break;
      case 4:
        s.schedule.beacon_silence(at, dur, ap);
        ++s.expected_onsets;
        break;
      case 5:
        s.schedule.beacon_silence(at, dur, kAllAps);
        ++s.expected_onsets;
        break;
      case 6:
        s.schedule.psm_flush(at, ap);
        ++s.expected_onsets;
        break;
      // needs_network kinds: no ApNetwork is registered here, so both
      // engines must skip them without counting or perturbing streams.
      case 7:
        s.schedule.dhcp_stall(at, dur, ap);
        break;
      case 8:
        s.schedule.gateway_flap(at, dur, kAllAps);
        break;
      default:
        s.schedule.dhcp_pool_reset(at, ap);
        break;
    }
  }
  return s;
}

using Delivery = std::tuple<std::uint64_t, std::uint64_t, std::size_t, int>;

struct RunOut {
  std::vector<Delivery> delivered;
  std::uint64_t sent = 0, rx_delivered = 0, rx_dropped = 0, fanout = 0;
  std::uint64_t injected = 0;
};

wire::Frame fuzz_frame(const FuzzClient& from, const FuzzSend& snd) {
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.src = wire::MacAddress(from.mac);
  f.dst = snd.dst == 0 ? wire::MacAddress::broadcast()
                       : wire::MacAddress(snd.dst);
  f.size_bytes = snd.size;
  return f;
}

RunOut run_serial(const FuzzSpec& spec, std::uint64_t seed) {
  Simulator sim;
  Medium medium(sim, Propagation(zero_loss(spec.range)), Rng(99));
  RunOut out;

  std::vector<std::unique_ptr<AccessPoint>> aps;
  for (std::size_t i = 0; i < spec.aps.size(); ++i) {
    const FuzzAp& a = spec.aps[i];
    aps.push_back(std::make_unique<AccessPoint>(
        sim, medium, wire::MacAddress(a.mac), a.pos,
        fuzz_ap_config(a.channel), Rng(1000 + i)));
    aps.back()->start();
  }
  std::vector<std::unique_ptr<Radio>> radios;
  for (const FuzzClient& c : spec.clients) {
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(c.mac), [pos = c.pos] { return pos; }));
    Radio* radio = radios.back().get();
    radio->set_receiver([&out, mac = c.mac](const wire::Frame& f) {
      out.delivered.emplace_back(mac, f.src.raw(), f.size_bytes, f.channel);
    });
    if (c.channel != 1) radio->tune(c.channel);
  }

  FaultInjector injector(sim, Rng(fault::fault_stream_seed(seed)));
  injector.attach_medium(medium);
  for (auto& ap : aps) injector.add_ap(*ap, nullptr);
  injector.arm(spec.schedule);

  for (const FuzzSend& snd : spec.sends) {
    sim.post_at(Time{snd.at_us}, [&, snd] {
      radios[snd.client]->send(fuzz_frame(spec.clients[snd.client], snd));
    });
  }
  sim.run_until(kHorizon);

  out.sent = medium.frames_sent();
  out.rx_delivered = medium.frames_delivered();
  out.rx_dropped = medium.frames_dropped_at_rx();
  out.fanout = medium.fanout_scheduled();
  out.injected = injector.injected();
  std::sort(out.delivered.begin(), out.delivered.end());
  return out;
}

/// An N-shard formation with per-shard mediums, a fabric, and the sharded
/// fault wiring of the scenario kernel (experiment.cpp) in miniature.
struct Cluster {
  std::vector<std::unique_ptr<Simulator>> sims;
  std::unique_ptr<ShardedSimulator> bus;
  std::vector<std::unique_ptr<Medium>> mediums;
  std::unique_ptr<ShardFabric> fabric;

  Cluster(ShardPartition part, double range) {
    const int shards = part.shards;
    std::vector<Simulator*> sp;
    for (int s = 0; s < shards; ++s) {
      sims.push_back(std::make_unique<Simulator>());
      sp.push_back(sims.back().get());
    }
    bus = std::make_unique<ShardedSimulator>(sp, kShardLookahead);
    std::vector<Medium*> mp;
    for (int s = 0; s < shards; ++s) {
      mediums.push_back(std::make_unique<Medium>(
          *sims[s], Propagation(zero_loss(range)), Rng(100 + s)));
      mp.push_back(mediums.back().get());
    }
    fabric = std::make_unique<ShardFabric>(*bus, std::move(mp),
                                           std::move(part), mac_is_client);
  }
};

RunOut run_sharded(const FuzzSpec& spec, int shards, std::uint64_t seed) {
  std::vector<std::pair<wire::Channel, double>> sites;
  for (const FuzzAp& a : spec.aps) sites.push_back({a.channel, a.pos.x});
  Cluster w(build_shard_partition(sites, shards, spec.range), spec.range);
  const ShardPartition& part = w.fabric->partition();
  RunOut out;

  // APs on their stripe owners; shard-local injector indices follow global
  // order exactly as partition_schedule's ap_owner contract requires.
  std::vector<int> owner(spec.aps.size());
  std::vector<int> local(spec.aps.size());
  std::vector<int> count(static_cast<std::size_t>(shards), 0);
  std::vector<std::unique_ptr<AccessPoint>> aps;
  for (std::size_t i = 0; i < spec.aps.size(); ++i) {
    const FuzzAp& a = spec.aps[i];
    owner[i] = part.owner(a.channel, a.pos.x);
    local[i] = count[owner[i]]++;
    aps.push_back(std::make_unique<AccessPoint>(
        *w.sims[owner[i]], *w.mediums[owner[i]], wire::MacAddress(a.mac),
        a.pos, fuzz_ap_config(a.channel), Rng(1000 + i)));
    aps.back()->start();
  }

  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<int> home_of;
  std::mutex delivered_mu;
  for (std::size_t c = 0; c < spec.clients.size(); ++c) {
    const FuzzClient& cl = spec.clients[c];
    const int home = static_cast<int>(c) % shards;
    radios.push_back(std::make_unique<Radio>(
        *w.mediums[home], wire::MacAddress(cl.mac),
        [pos = cl.pos] { return pos; }));
    home_of.push_back(home);
    Radio* radio = radios.back().get();
    radio->set_receiver(
        [&out, &delivered_mu, mac = cl.mac](const wire::Frame& f) {
          std::lock_guard<std::mutex> lock(delivered_mu);
          out.delivered.emplace_back(mac, f.src.raw(), f.size_bytes, f.channel);
        });
    w.fabric->register_client(
        home, *radio, [pos = cl.pos](Time) { return pos; }, 0.0, cl.mac,
        cl.mac + 0x100);
    if (cl.channel != 1) radio->tune(cl.channel);
  }

  FaultRouter router;
  router.shards = shards;
  router.total_aps = spec.aps.size();
  router.channel_owners = [&part](int channel) {
    int buf[kMaxShards];
    const int n = part.stripe_owners(static_cast<wire::Channel>(channel), buf);
    return std::vector<int>(buf, buf + n);
  };
  router.ap_owner = [&owner, &local](std::size_t g) {
    return std::make_pair(owner[g], local[g]);
  };
  auto routed = partition_schedule(
      spec.schedule, Rng(fault::fault_stream_seed(seed)), router);

  std::vector<std::unique_ptr<FaultInjector>> injectors(
      static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    if (routed[s].empty()) continue;
    // The constructor stream is never drawn for routed specs; any seed do.
    injectors[s] = std::make_unique<FaultInjector>(*w.sims[s], Rng(5000 + s));
    injectors[s]->attach_medium(*w.mediums[s]);
    for (std::size_t i = 0; i < aps.size(); ++i) {
      if (owner[i] == s) injectors[s]->add_ap(*aps[i], nullptr);
    }
    injectors[s]->arm_routed(std::move(routed[s]));
  }

  for (const FuzzSend& snd : spec.sends) {
    w.sims[home_of[snd.client]]->post_at(Time{snd.at_us}, [&, snd] {
      radios[snd.client]->send(fuzz_frame(spec.clients[snd.client], snd));
    });
  }

  w.bus->drain_initial();
  EXPECT_TRUE(w.bus->run_until(kHorizon));
  w.bus->drain_final();

  for (const auto& m : w.mediums) {
    out.sent += m->frames_sent();
    out.rx_delivered += m->frames_delivered();
    out.rx_dropped += m->frames_dropped_at_rx();
    out.fanout += m->fanout_scheduled();
  }
  for (const auto& inj : injectors) {
    if (inj) out.injected += inj->injected();
  }
  std::sort(out.delivered.begin(), out.delivered.end());
  return out;
}

std::uint64_t fuzz_seed_count() {
  // The TSan tier-1 leg trims the sweep (race coverage saturates in a few
  // seeds; the instrumented barrier overhead does not).
  if (const char* env = std::getenv("SPIDER_FAULT_FUZZ_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return 200;
}

TEST(FaultShardFuzz, DifferentialMatchesSerialAcrossSeedsAndWidths) {
  const std::uint64_t seeds = fuzz_seed_count();
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const FuzzSpec spec = make_fuzz_spec(seed);
    const RunOut serial = run_serial(spec, seed);
    // Every non-network spec actually fired (the schedule is not a no-op).
    ASSERT_EQ(serial.injected, spec.expected_onsets) << "seed " << seed;
    for (int shards : {1, 2, 4}) {
      const RunOut sharded = run_sharded(spec, shards, seed);
      ASSERT_EQ(serial.delivered, sharded.delivered)
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(serial.sent, sharded.sent)
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(serial.rx_delivered, sharded.rx_delivered)
          << "seed " << seed << " shards " << shards;
      ASSERT_EQ(serial.rx_dropped, sharded.rx_dropped)
          << "seed " << seed << " shards " << shards;
      // Onset accounting: one shard per replicated spec, exact sum.
      ASSERT_EQ(serial.injected, sharded.injected)
          << "seed " << seed << " shards " << shards;
      // Beacons run to the horizon, so frames can still be in flight at
      // cutoff (fanout > delivered + dropped) — but identically so on
      // both engines.
      ASSERT_EQ(serial.fanout, sharded.fanout)
          << "seed " << seed << " shards " << shards;
    }
  }
}

// ---------------------------------------------------------------------
// Directed: a channel fault on a *striped* channel flips the impairment
// on every owning medium with the identical timeline. Edges are placed
// >= 500 us (more than one lookahead window) from every beacon, so even
// cross-stripe exported frames decide against the same impairment state
// the serial engine saw.
// ---------------------------------------------------------------------

ApConfig gridlocked_ap_config() {
  ApConfig c;
  c.channel = 6;
  c.beacon_interval = msec(20);
  c.beacon_jitter = Time{0};  // beacons on the 20 ms grid, edges off it
  return c;
}

TEST(FaultShardDirected, StripedChannelFaultFlipsEveryOwner) {
  FaultSchedule schedule;
  schedule.channel_interference(usec(30500), usec(60000), 6, 1.0);

  // Serial reference.
  Simulator sim;
  Medium medium(sim, Propagation(zero_loss(120.0)), Rng(99));
  AccessPoint ap_a(sim, medium, wire::MacAddress(kApMac), {150, 0},
                   gridlocked_ap_config(), Rng(1001));
  AccessPoint ap_b(sim, medium, wire::MacAddress(kApMac + 1), {250, 0},
                   gridlocked_ap_config(), Rng(1002));
  ap_a.start();
  ap_b.start();
  std::vector<Delivery> serial_heard;
  Radio sclient(medium, wire::MacAddress(kClientMac),
                [] { return Position{195, 0}; });
  sclient.set_receiver([&](const wire::Frame& f) {
    serial_heard.emplace_back(kClientMac, f.src.raw(), f.size_bytes,
                              f.channel);
  });
  sclient.tune(6);
  FaultInjector sinj(sim, Rng(fault::fault_stream_seed(77)));
  sinj.attach_medium(medium);
  sinj.add_ap(ap_a, nullptr);
  sinj.add_ap(ap_b, nullptr);
  sinj.arm(schedule);
  sim.run_until(msec(200));

  // Two-shard formation: one stripe each side of x = 200; both APs sit
  // inside the export margin of the cut.
  ShardPartition part;
  part.shards = 2;
  part.margin_m = 121.0;
  part.stripes[6] = {{200.0, 0}, {std::numeric_limits<double>::infinity(), 1}};
  Cluster w(std::move(part), 120.0);
  AccessPoint wap_a(*w.sims[0], *w.mediums[0], wire::MacAddress(kApMac),
                    {150, 0}, gridlocked_ap_config(), Rng(1001));
  AccessPoint wap_b(*w.sims[1], *w.mediums[1], wire::MacAddress(kApMac + 1),
                    {250, 0}, gridlocked_ap_config(), Rng(1002));
  wap_a.start();
  wap_b.start();
  std::vector<Delivery> sharded_heard;
  std::mutex heard_mu;
  Radio wclient(*w.mediums[0], wire::MacAddress(kClientMac),
                [] { return Position{195, 0}; });
  wclient.set_receiver([&](const wire::Frame& f) {
    std::lock_guard<std::mutex> lock(heard_mu);
    sharded_heard.emplace_back(kClientMac, f.src.raw(), f.size_bytes,
                               f.channel);
  });
  w.fabric->register_client(
      0, wclient, [](Time) { return Position{195, 0}; }, 0.0, kClientMac,
      kClientMac + 0x100);
  wclient.tune(6);

  FaultRouter router;
  router.shards = 2;
  router.total_aps = 2;
  const ShardPartition& p = w.fabric->partition();
  router.channel_owners = [&p](int channel) {
    int buf[kMaxShards];
    const int n = p.stripe_owners(static_cast<wire::Channel>(channel), buf);
    return std::vector<int>(buf, buf + n);
  };
  router.ap_owner = [](std::size_t g) {
    return std::make_pair(static_cast<int>(g), 0);
  };
  auto routed =
      partition_schedule(schedule, Rng(fault::fault_stream_seed(77)), router);
  ASSERT_EQ(routed[0].size(), 1u);  // both stripe owners hold the fault
  ASSERT_EQ(routed[1].size(), 1u);

  FaultInjector inj0(*w.sims[0], Rng(5000));
  FaultInjector inj1(*w.sims[1], Rng(5001));
  inj0.attach_medium(*w.mediums[0]);
  inj1.attach_medium(*w.mediums[1]);
  inj0.add_ap(wap_a, nullptr);
  inj1.add_ap(wap_b, nullptr);
  inj0.arm_routed(std::move(routed[0]));
  inj1.arm_routed(std::move(routed[1]));

  // Sample both mediums mid-fault and after it clears.
  double mid[2] = {-1, -1}, after[2] = {-1, -1};
  for (int s = 0; s < 2; ++s) {
    w.sims[s]->post_at(msec(60), [&, s] {
      mid[s] = w.mediums[s]->channel_impairment(6);
    });
    w.sims[s]->post_at(msec(120), [&, s] {
      after[s] = w.mediums[s]->channel_impairment(6);
    });
  }

  w.bus->drain_initial();
  EXPECT_TRUE(w.bus->run_until(msec(200)));
  w.bus->drain_final();

  EXPECT_DOUBLE_EQ(mid[0], 1.0);
  EXPECT_DOUBLE_EQ(mid[1], 1.0);
  EXPECT_DOUBLE_EQ(after[0], 0.0);
  EXPECT_DOUBLE_EQ(after[1], 0.0);
  // One onset counted across the formation, like the serial injector.
  EXPECT_EQ(inj0.injected() + inj1.injected(), sinj.injected());
  EXPECT_EQ(sinj.injected(), 1u);

  std::sort(serial_heard.begin(), serial_heard.end());
  std::sort(sharded_heard.begin(), sharded_heard.end());
  EXPECT_EQ(serial_heard, sharded_heard);
  // The fault actually suppressed traffic: 3 of the ~10 beacon slots per
  // AP fall inside the 60 ms window.
  EXPECT_LT(serial_heard.size(), 18u);
  EXPECT_GE(serial_heard.size(), 10u);
}

// ---------------------------------------------------------------------
// Directed: an AP blackout whose begin and end land exactly on lockstep
// window boundaries (k * 192 us) — the seam where a drained thunk and a
// fault transition share a timestamp.
// ---------------------------------------------------------------------

TEST(FaultShardDirected, BlackoutOnWindowBoundaryMatchesSerial) {
  // 48 ms = 250 windows; 76.8 ms = 400 windows.
  const Time at = usec(48000);
  const Time dur = usec(28800);
  ASSERT_EQ(at.count() % kShardLookahead.count(), 0);
  ASSERT_EQ((at + dur).count() % kShardLookahead.count(), 0);

  FaultSchedule schedule;
  schedule.ap_blackout(at, dur, 1);

  FuzzSpec spec;
  spec.range = 130.0;
  // Four APs on channel 6 force an x-stripe split at two shards; the
  // blacked-out AP (global index 1) sits left of the cut, the client right
  // of it, inside the export margin.
  spec.aps = {{kApMac + 0, 6, {50, 0}},
              {kApMac + 1, 6, {150, 0}},
              {kApMac + 2, 6, {250, 0}},
              {kApMac + 3, 6, {350, 0}}};
  spec.clients = {{kClientMac, 6, {210, 0}}};
  FuzzSend snd;
  snd.client = 0;
  snd.at_us = 20000;
  snd.size = 400;
  spec.sends = {snd};
  spec.schedule = schedule;

  const RunOut serial = run_serial(spec, 123);
  EXPECT_EQ(serial.injected, 1u);
  for (int shards : {2, 4}) {
    const RunOut sharded = run_sharded(spec, shards, 123);
    EXPECT_EQ(serial.delivered, sharded.delivered) << "shards " << shards;
    EXPECT_EQ(serial.sent, sharded.sent) << "shards " << shards;
    EXPECT_EQ(sharded.injected, 1u) << "shards " << shards;
  }
}

// ---------------------------------------------------------------------
// Directed: a mobile client crosses a stripe cut while the far AP is
// blacked out — the proxy migrates onto a shard whose AP is mid-fault,
// and starts hearing it only after power returns.
// ---------------------------------------------------------------------

TEST(FaultShardDirected, ProxyMigratesAcrossStripeCutMidBlackout) {
  FaultSchedule schedule;
  // AP B dark from 2.0 s to 4.0 s; the client crosses x=200 at t=2.8 s.
  schedule.ap_blackout(sec(2), sec(2), 1);

  const auto pos_at = [](Time t) {
    return Position{60.0 + 50.0 * to_seconds(t), 0.0};
  };
  ApConfig cfg_a = fuzz_ap_config(6);
  ApConfig cfg_b = fuzz_ap_config(6);
  cfg_a.beacon_interval = msec(100);
  cfg_b.beacon_interval = msec(100);
  cfg_a.beacon_jitter = msec(6);
  cfg_b.beacon_jitter = msec(6);

  const auto count_from = [](const std::vector<Delivery>& heard,
                             std::uint64_t src) {
    return static_cast<int>(
        std::count_if(heard.begin(), heard.end(), [src](const Delivery& d) {
          return std::get<1>(d) == src;
        }));
  };

  // Serial reference.
  std::vector<Delivery> serial_heard;
  {
    Simulator sim;
    Medium medium(sim, Propagation(zero_loss(120.0)), Rng(99));
    AccessPoint ap_a(sim, medium, wire::MacAddress(kApMac), {50, 0}, cfg_a,
                     Rng(1001));
    AccessPoint ap_b(sim, medium, wire::MacAddress(kApMac + 1), {350, 0},
                     cfg_b, Rng(1002));
    ap_a.start();
    ap_b.start();
    RadioConfig mobile;
    mobile.max_speed_mps = 50.0;
    Radio client(medium, wire::MacAddress(kClientMac),
                 [&] { return pos_at(sim.now()); }, mobile);
    client.set_receiver([&](const wire::Frame& f) {
      serial_heard.emplace_back(kClientMac, f.src.raw(), f.size_bytes,
                                f.channel);
    });
    client.tune(6);
    FaultInjector inj(sim, Rng(fault::fault_stream_seed(31)));
    inj.attach_medium(medium);
    inj.add_ap(ap_a, nullptr);
    inj.add_ap(ap_b, nullptr);
    inj.arm(schedule);
    sim.run_until(sec(6));
    EXPECT_EQ(inj.injected(), 1u);
  }

  // Two-shard formation, cut at x = 200.
  ShardPartition part;
  part.shards = 2;
  part.margin_m = 121.0;
  part.stripes[6] = {{200.0, 0}, {std::numeric_limits<double>::infinity(), 1}};
  Cluster w(std::move(part), 120.0);
  AccessPoint wap_a(*w.sims[0], *w.mediums[0], wire::MacAddress(kApMac),
                    {50, 0}, cfg_a, Rng(1001));
  AccessPoint wap_b(*w.sims[1], *w.mediums[1], wire::MacAddress(kApMac + 1),
                    {350, 0}, cfg_b, Rng(1002));
  wap_a.start();
  wap_b.start();
  RadioConfig mobile;
  mobile.max_speed_mps = 50.0;
  std::vector<Delivery> sharded_heard;
  std::mutex heard_mu;
  Radio client(*w.mediums[0], wire::MacAddress(kClientMac),
               [&] { return pos_at(w.sims[0]->now()); }, mobile);
  client.set_receiver([&](const wire::Frame& f) {
    std::lock_guard<std::mutex> lock(heard_mu);
    sharded_heard.emplace_back(kClientMac, f.src.raw(), f.size_bytes,
                               f.channel);
  });
  w.fabric->register_client(0, client, pos_at, 50.0, kClientMac,
                            kClientMac + 0x100);
  client.tune(6);

  FaultRouter router;
  router.shards = 2;
  router.total_aps = 2;
  router.ap_owner = [](std::size_t g) {
    return std::make_pair(static_cast<int>(g), 0);
  };
  auto routed =
      partition_schedule(schedule, Rng(fault::fault_stream_seed(31)), router);
  EXPECT_TRUE(routed[0].empty());  // entity fault: AP B's owner shard only
  ASSERT_EQ(routed[1].size(), 1u);
  FaultInjector inj1(*w.sims[1], Rng(5001));
  inj1.add_ap(wap_b, nullptr);
  inj1.arm_routed(std::move(routed[1]));

  w.bus->drain_initial();
  EXPECT_TRUE(w.bus->run_until(sec(6)));
  w.bus->drain_final();
  EXPECT_EQ(inj1.injected(), 1u);

  std::sort(serial_heard.begin(), serial_heard.end());
  std::sort(sharded_heard.begin(), sharded_heard.end());
  EXPECT_EQ(serial_heard, sharded_heard);
  // The crossing happened (proxy re-homed) and B was heard only in the
  // in-range, powered span [4.0 s, 6.0 s] — ~20 beacon slots.
  EXPECT_GE(w.fabric->migrations(), 1u);
  EXPECT_GE(count_from(sharded_heard, kApMac), 10);
  const int from_b = count_from(sharded_heard, kApMac + 1);
  EXPECT_GE(from_b, 10);
  EXPECT_LE(from_b, 22);
}

}  // namespace
}  // namespace spider::phy

// ---------------------------------------------------------------------
// Scenario level: the full engine path (testbeds, harnesses, recorders).
// Cross-width byte equality of the whole result is out of reach by design
// (per-shard testbeds fork their own stochastic streams), but three
// invariants must hold: each width reproduces itself, shards=1 rides the
// serial engine verbatim, and fault onset counts are width-invariant.
// ---------------------------------------------------------------------

namespace spider::trace {
namespace {

std::uint64_t result_digest(const ScenarioResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  fold(r.total_bytes);
  fold(r.switches);
  fold(r.joins_attempted);
  fold(r.e2e_succeeded);
  fold(r.faults_injected);
  fold(r.outages);
  fold(r.recoveries);
  fold(static_cast<std::uint64_t>(r.recovery_times.size()));
  for (double s : r.recovery_times.samples()) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(s));
    std::memcpy(&bits, &s, sizeof(bits));
    fold(bits);
  }
  return h;
}

TEST(FaultShardScenario, WidthsReproduceAndAgreeOnFaultCounts) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration = sec(15);
  cfg.clients = 2;
  cfg.deployment.road_length_m = 800.0;
  cfg.deployment.aps_per_km = 10.0;
  cfg.impairments.schedule.ap_blackout(sec(4), sec(2), 0)
      .burst_loss(sec(6), sec(3), 6, 0.85)
      .gateway_flap(sec(9), sec(2), fault::kAllAps)
      .psm_flush(sec(3), 1);

  std::uint64_t serial_faults = 0;
  for (int shards : {1, 2, 4}) {
    cfg.shards = shards;
    ASSERT_TRUE(cfg.validate().empty()) << "shards " << shards;
    const ScenarioResult r1 = detail::execute_scenario(cfg, nullptr);
    const ScenarioResult r2 = detail::execute_scenario(cfg, nullptr);
    EXPECT_TRUE(r1.completed) << "shards " << shards;
    EXPECT_GT(r1.total_bytes, 0u) << "shards " << shards;
    EXPECT_EQ(result_digest(r1), result_digest(r2)) << "shards " << shards;
    // All four specs fire at every width (the gateway flap hits every AP
    // but counts once).
    EXPECT_EQ(r1.faults_injected, 4u) << "shards " << shards;
    if (shards == 1) {
      serial_faults = r1.faults_injected;
    } else {
      EXPECT_EQ(r1.faults_injected, serial_faults) << "shards " << shards;
    }
  }
}

}  // namespace
}  // namespace spider::trace
