// White-box tests of the drivers' scheduling internals: per-channel queue
// bookkeeping, management gating, mode changes, adaptive channel tracking,
// and the FatVAP slot machinery.

#include <gtest/gtest.h>

#include "baseline/fatvap.hpp"
#include "baseline/stock_wifi.hpp"
#include "core/adaptive.hpp"
#include "core/link_manager.hpp"
#include "core/spider_driver.hpp"
#include "trace/testbed.hpp"

namespace spider {
namespace {

trace::TestbedConfig quiet_air(std::uint64_t seed = 41) {
  trace::TestbedConfig tc;
  tc.seed = seed;
  tc.propagation.base_loss = 0.02;
  tc.propagation.good_radius_m = 90;
  return tc;
}

net::DhcpServerConfig quick_dhcp() {
  net::DhcpServerConfig d;
  d.offer_delay_min = msec(50);
  d.offer_delay_median = msec(150);
  d.offer_delay_max = msec(400);
  return d;
}

core::SpiderConfig spider_cfg(core::OperationMode mode, std::size_t ifaces = 2) {
  core::SpiderConfig c;
  c.num_interfaces = ifaces;
  c.mode = std::move(mode);
  c.dhcp = {.retx_timeout = msec(500), .max_sends = 4};
  return c;
}

TEST(DriverInternals, SendDataWithoutBssidCountsAsDrop) {
  trace::Testbed bed(quiet_air());
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; },
                            spider_cfg(core::OperationMode::single(6)));
  auto pkt = wire::make_icmp_packet(wire::Ipv4(10, 0, 0, 2),
                                    wire::Ipv4(1, 1, 1, 1), wire::IcmpEcho{});
  driver.iface(0).send_packet(pkt);  // never associated: no BSSID
  EXPECT_EQ(driver.queue_drops(), 1u);
}

TEST(DriverInternals, UnscheduledChannelTrafficDropped) {
  trace::Testbed bed(quiet_air());
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  bed.add_ap(spec);
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; },
                            spider_cfg(core::OperationMode::single(6)));
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();
  bed.sim.run_until(sec(10));
  ASSERT_TRUE(driver.iface(0).up());

  // The mode abandons channel 6: in-flight traffic for it must be dropped,
  // not silently queued forever.
  driver.set_mode(core::OperationMode::single(1));
  const auto drops_before = driver.queue_drops();
  auto pkt = wire::make_icmp_packet(driver.iface(0).ip(), bed.server_ip(),
                                    wire::IcmpEcho{});
  driver.iface(0).send_packet(pkt);
  EXPECT_GT(driver.queue_drops(), drops_before);
}

TEST(DriverInternals, ChannelQueueBounded) {
  trace::Testbed bed(quiet_air());
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  bed.add_ap(spec);
  auto cfg = spider_cfg(core::OperationMode::weighted({{6, 0.5}, {1, 0.5}},
                                                      msec(400)));
  cfg.channel_queue_limit = 10;
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();
  bed.sim.run_until(sec(10));
  ASSERT_TRUE(driver.iface(0).up());

  // Stuff the channel-6 queue while the card sits on channel 1.
  while (driver.channel_active(6)) bed.sim.run_until(bed.sim.now() + msec(10));
  const auto drops_before = driver.queue_drops();
  auto pkt = wire::make_icmp_packet(driver.iface(0).ip(), bed.server_ip(),
                                    wire::IcmpEcho{});
  for (int i = 0; i < 40; ++i) driver.iface(0).send_packet(pkt);
  EXPECT_GE(driver.queue_drops(), drops_before + 25);
}

TEST(DriverInternals, SendMgmtGatedOnActiveChannel) {
  trace::Testbed bed(quiet_air());
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; },
                            spider_cfg(core::OperationMode::single(6)));
  driver.start();
  bed.sim.run_until(msec(100));
  wire::Frame f;
  f.type = wire::FrameType::kAuthRequest;
  f.src = driver.iface(0).mac();
  f.size_bytes = wire::kMgmtFrameBytes;
  EXPECT_TRUE(driver.send_mgmt(f, 6));
  EXPECT_FALSE(driver.send_mgmt(f, 11));  // card is on 6
}

TEST(DriverInternals, ProbeRequestsGoOutPeriodically) {
  trace::Testbed bed(quiet_air());
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  auto& ap = bed.add_ap(spec);
  (void)ap;

  // A probe-sniffing radio on the same channel.
  phy::Radio sniffer(bed.medium, wire::MacAddress(0xEE),
                     [] { return Position{5, 0}; });
  int probes = 0;
  sniffer.set_receiver([&](const wire::Frame& f) {
    if (f.type == wire::FrameType::kProbeRequest) ++probes;
  });
  sniffer.tune(6);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; },
                            spider_cfg(core::OperationMode::single(6)));
  driver.start();
  bed.sim.run_until(sec(5));
  // Default probe interval 500 ms: ~10 probes in 5 s.
  EXPECT_NEAR(probes, 10, 3);
}

TEST(DriverInternals, SlotTimeSharesFollowFractions) {
  trace::Testbed bed(quiet_air());
  auto cfg = spider_cfg(core::OperationMode::weighted(
      {{1, 0.75}, {11, 0.25}}, msec(400)));
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  driver.start();

  // Sample the active channel at 1 ms resolution over 20 s.
  int on1 = 0, on11 = 0, switching = 0;
  for (int ms = 1000; ms < 21000; ++ms) {
    bed.sim.run_until(msec(ms));
    if (driver.radio().switching()) {
      ++switching;
    } else if (driver.radio().channel() == 1) {
      ++on1;
    } else if (driver.radio().channel() == 11) {
      ++on11;
    }
  }
  const double f1 = static_cast<double>(on1) / (on1 + on11 + switching);
  const double f11 = static_cast<double>(on11) / (on1 + on11 + switching);
  EXPECT_NEAR(f1, 0.73, 0.04);   // 0.75 minus its share of switch overhead
  EXPECT_NEAR(f11, 0.23, 0.04);
  EXPECT_GT(switching, 0);
}

TEST(DriverInternals, AdaptiveFollowsApPopulationAcrossChannels) {
  trace::Testbed bed(quiet_air(42));
  trace::Testbed::ApSpec spec;
  spec.dhcp = quick_dhcp();
  spec.channel = 1;
  spec.position = {20, 0};
  bed.add_ap(spec);

  auto cfg = spider_cfg(core::OperationMode::equal_split({1, 6, 11}, msec(600)));
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  core::AdaptiveConfig ac;
  ac.min_mode_hold = sec(1);
  core::AdaptiveModeController ctl(driver, [] { return 15.0; }, ac);
  driver.start();
  ctl.start();
  bed.sim.run_until(sec(10));
  ASSERT_TRUE(ctl.in_single_channel_mode());
  EXPECT_TRUE(driver.mode().includes(1));

  // The channel-1 AP "disappears" and a channel-11 one appears: the
  // controller retunes the single-channel mode to follow.
  bed.aps()[0].ap.reset();
  bed.aps()[0].network.reset();
  trace::Testbed::ApSpec spec11 = spec;
  spec11.channel = 11;
  spec11.position = {25, 0};
  bed.add_ap(spec11);
  bed.sim.run_until(sec(40));
  EXPECT_TRUE(driver.mode().includes(11));
  EXPECT_TRUE(driver.mode().single_channel());
}

TEST(DriverInternals, EveryDriverClaimsExactlyItsOwnMacs) {
  // A radio's address block is its own MAC plus one per interface and
  // nothing more: the medium's ARQ gate, and a formation proxy's, read it.
  trace::Testbed bed(quiet_air());
  const auto expect_block = [](core::DriverBase& driver, phy::Radio& radio) {
    const wire::MacBlock& block = radio.rx_filter().addrs;
    EXPECT_EQ(block.lo, radio.mac().raw());
    EXPECT_EQ(block.hi, radio.mac().raw() + 1 + driver.num_interfaces());
    for (std::size_t i = 0; i < driver.num_interfaces(); ++i) {
      EXPECT_TRUE(block.contains(driver.iface(i).mac()));
    }
  };
  core::SpiderDriver spider(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; },
                            spider_cfg(core::OperationMode::single(6), 3));
  expect_block(spider, spider.radio());
  base::FatVapDriver fat(bed.sim, bed.medium, bed.next_client_mac_block(),
                         [] { return Position{0, 0}; },
                         spider_cfg(core::OperationMode::single(1), 3),
                         base::FatVapConfig{});
  expect_block(fat, fat.radio());
  base::StockWifiDriver stock(bed.sim, bed.medium, bed.next_client_mac_block(),
                              [] { return Position{0, 0}; },
                              base::StockConfig{}, bed.server_ip());
  expect_block(stock, stock.radio());
}

TEST(DriverInternals, FatVapQueuesPerInterfaceWhileNotSlotOwner) {
  trace::Testbed bed(quiet_air(44));
  trace::Testbed::ApSpec spec;
  spec.dhcp = quick_dhcp();
  spec.channel = 6;
  spec.position = {20, 0};
  bed.add_ap(spec);
  spec.position = {-20, 0};
  bed.add_ap(spec);

  auto cfg = spider_cfg(core::OperationMode::single(6), 2);
  base::FatVapDriver fat(bed.sim, bed.medium, bed.next_client_mac_block(),
                         [] { return Position{0, 0}; }, cfg,
                         base::FatVapConfig{});
  core::LinkManager manager(fat, bed.server_ip());
  fat.start();
  manager.start();
  bed.sim.run_until(sec(40));
  ASSERT_EQ(manager.links_up(), 2u);
  // Both interfaces completed joins under slotting; the per-AP queues
  // never overflowed with just liveness traffic.
  EXPECT_EQ(fat.queue_drops(), 0u);
  EXPECT_GT(fat.slot_cycles(), 50u);
}

TEST(DriverInternals, RadioDropCounterDuringSwitch) {
  trace::Testbed bed(quiet_air(45));
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; },
                            spider_cfg(core::OperationMode::equal_split(
                                {1, 6, 11}, msec(60))));
  driver.start();
  bed.sim.run_until(sec(10));
  // A frantic schedule (15 ms dwells after overhead) switches constantly;
  // the scanner's probes sometimes land mid-reset and are counted.
  EXPECT_GT(driver.radio().switches_performed(), 300u);
}

TEST(DriverInternals, BeaconTimAdvertisesBufferedTraffic) {
  trace::Testbed bed(quiet_air(46));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  auto& ap = bed.add_ap(spec);

  // Sniffer records beacon TIMs.
  std::vector<std::size_t> tim_sizes;
  phy::Radio sniffer(bed.medium, wire::MacAddress(0xEF),
                     [] { return Position{5, 0}; });
  sniffer.set_receiver([&](const wire::Frame& f) {
    if (f.type == wire::FrameType::kBeacon) tim_sizes.push_back(f.tim_aids.size());
  });
  sniffer.tune(6);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; },
                            spider_cfg(core::OperationMode::single(6), 1));
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();
  bed.sim.run_until(sec(10));
  ASSERT_TRUE(driver.iface(0).up());

  // Put the client in power-save and buffer a downlink packet: the next
  // beacons must advertise its AID.
  wire::Frame psm;
  psm.type = wire::FrameType::kNullData;
  psm.src = driver.iface(0).mac();
  psm.dst = ap.ap->bssid();
  psm.bssid = ap.ap->bssid();
  psm.power_mgmt = true;
  psm.size_bytes = wire::kNullFrameBytes;
  driver.radio().send(psm);
  bed.sim.run_until(sec(10) + msec(50));
  tim_sizes.clear();
  ap.ap->deliver_to_client(
      driver.iface(0).mac(),
      wire::make_icmp_packet(wire::Ipv4(10, 0, 0, 1), driver.iface(0).ip(),
                             wire::IcmpEcho{}));
  bed.sim.run_until(sec(11));
  ASSERT_FALSE(tim_sizes.empty());
  bool advertised = false;
  for (auto n : tim_sizes) advertised |= n > 0;
  EXPECT_TRUE(advertised);
}

TEST(DriverInternals, PsPollModeStillDownloads) {
  trace::Testbed bed(quiet_air(47));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.backhaul = mbps(2);
  spec.dhcp = quick_dhcp();
  bed.add_ap(spec);

  auto cfg = spider_cfg(core::OperationMode::weighted({{6, 0.5}, {1, 0.5}},
                                                      msec(400)), 1);
  cfg.psm_retrieval = core::PsmRetrieval::kPsPoll;
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  core::LinkManager manager(driver, bed.server_ip());
  trace::ThroughputRecorder rec;
  trace::DownloadHarness harness(bed.sim, bed.server_ip(), rec);
  harness.attach(manager);
  driver.start();
  manager.start();
  bed.sim.run_until(sec(40));
  ASSERT_TRUE(driver.iface(0).up());
  EXPECT_GT(rec.total_bytes(), 10'000u);  // trickles, but flows
}

TEST(DriverInternals, WakeModeOutpacesPsPoll) {
  // Fast link + short dwells: the regime where per-frame polling hurts
  // most (the ablation bench shows ~14x here, ~2x at long dwells).
  auto run = [](core::PsmRetrieval retrieval) {
    trace::Testbed bed(quiet_air(48));
    trace::Testbed::ApSpec spec;
    spec.channel = 6;
    spec.position = {20, 0};
    spec.backhaul = mbps(4);
    spec.dhcp = quick_dhcp();
    bed.add_ap(spec);
    auto cfg = spider_cfg(core::OperationMode::weighted({{6, 0.5}, {1, 0.5}},
                                                        msec(100)), 1);
    cfg.psm_retrieval = retrieval;
    core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                              [] { return Position{0, 0}; }, cfg);
    core::LinkManager manager(driver, bed.server_ip());
    trace::ThroughputRecorder rec;
    trace::DownloadHarness harness(bed.sim, bed.server_ip(), rec);
    harness.attach(manager);
    driver.start();
    manager.start();
    bed.sim.run_until(sec(40));
    return rec.total_bytes();
  };
  // The wake path clearly outpaces per-frame polling (the ablation bench
  // shows 1.8-14x depending on dwell; assert a conservative margin).
  EXPECT_GT(static_cast<double>(run(core::PsmRetrieval::kWakeNull)),
            1.3 * static_cast<double>(run(core::PsmRetrieval::kPsPoll)));
}

// --- receive filters ---------------------------------------------------
// The medium schedules no delivery for a frame its receiver's declared
// filter rejects (DESIGN.md §10). That is sound only if the receiver would
// have done nothing with it. So every rejected frame is handed straight to
// Radio::deliver here: the receiver's state must not move, and a twin
// world that never saw the frames must run on to the same event counts.

enum class Receiver { kAp, kSpider, kFatVap, kStock };

std::string scanner_state(const mac::Scanner& scanner) {
  std::string out = "cache=" + std::to_string(scanner.cache_size());
  for (const mac::ApObservation& o : scanner.current()) {
    out += " " + o.bssid.to_string() + "/" + std::to_string(o.rssi_dbm) +
           "/" + std::to_string(o.frames_heard) + "/" +
           std::to_string(o.last_seen.count());
  }
  return out;
}

std::string ap_state(const mac::AccessPoint& ap, wire::MacAddress client) {
  return "assoc=" + std::to_string(ap.associated_count()) +
         " client=" + std::to_string(ap.is_associated(client)) +
         " buffered=" + std::to_string(ap.psm_buffered(client)) +
         " grants=" + std::to_string(ap.assoc_grants()) +
         " denials=" + std::to_string(ap.assoc_denials()) +
         " psm_drops=" + std::to_string(ap.psm_drops());
}

struct FilterRun {
  std::uint64_t handed = 0;  ///< rejected frames handed to Radio::deliver
  std::string end;           ///< event counts and state at the horizon
};

/// One AP on channel 6 and one client joined to it. At 10 s, with
/// `inject`, every frame type x dst {own, other, broadcast} x bssid {own,
/// other} that the receiver's filter rejects is delivered to its radio,
/// each checked to leave the receiver's state as it was.
FilterRun run_filter_world(Receiver receiver, bool inject) {
  trace::Testbed bed(quiet_air());
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  mac::AccessPoint& ap = *bed.add_ap(spec).ap;
  const auto at_origin = [] { return Position{0, 0}; };
  const std::uint64_t block = bed.next_client_mac_block();
  std::unique_ptr<core::SpiderDriver> spider;
  std::unique_ptr<base::FatVapDriver> fat;
  std::unique_ptr<base::StockWifiDriver> stock;
  std::unique_ptr<core::LinkManager> manager;
  core::DriverBase* driver = nullptr;
  phy::Radio* client_radio = nullptr;
  if (receiver == Receiver::kFatVap) {
    fat = std::make_unique<base::FatVapDriver>(
        bed.sim, bed.medium, block, at_origin,
        spider_cfg(core::OperationMode::single(6)), base::FatVapConfig{});
    manager = std::make_unique<core::LinkManager>(*fat, bed.server_ip());
    fat->start();
    driver = fat.get();
    client_radio = &fat->radio();
  } else if (receiver == Receiver::kStock) {
    stock = std::make_unique<base::StockWifiDriver>(
        bed.sim, bed.medium, block, at_origin, base::StockConfig{},
        bed.server_ip());
    stock->start();
    driver = stock.get();
    client_radio = &stock->radio();
  } else {
    spider = std::make_unique<core::SpiderDriver>(
        bed.sim, bed.medium, block, at_origin,
        spider_cfg(core::OperationMode::single(6)));
    manager = std::make_unique<core::LinkManager>(*spider, bed.server_ip());
    spider->start();
    driver = spider.get();
    client_radio = &spider->radio();
  }
  if (manager) manager->start();
  bed.sim.run_until(sec(10));
  const wire::MacAddress vif = driver->iface(0).mac();
  EXPECT_TRUE(ap.is_associated(vif));

  // The AP hears from its associated client; a client hears from its AP.
  const bool at_ap = receiver == Receiver::kAp;
  phy::Radio& radio = at_ap ? ap.radio() : *client_radio;
  const wire::MacAddress src = at_ap ? vif : ap.bssid();
  const wire::MacAddress own = at_ap ? ap.bssid() : vif;
  const auto state = [&] {
    return at_ap ? ap_state(ap, vif) : scanner_state(driver->scanner());
  };

  FilterRun run;
  if (inject) {
    const std::string before = state();
    const wire::MacAddress other(0x5A5A5A);
    for (int t = 0; t <= static_cast<int>(wire::FrameType::kPsPoll); ++t) {
      const auto type = static_cast<wire::FrameType>(t);
      for (const wire::MacAddress dst :
           {own, other, wire::MacAddress::broadcast()}) {
        for (const wire::Bssid bssid : {ap.bssid(), other}) {
          const wire::RxFilter& filter = radio.rx_filter();
          if (filter.addrs.contains(dst) || filter.overhears(type)) continue;
          wire::Frame f;
          f.type = type;
          f.src = src;
          f.dst = dst;
          f.bssid = bssid;
          f.size_bytes = wire::kMgmtFrameBytes;
          f.power_mgmt = true;
          f.more_data = true;
          f.ssid = spec.ssid;
          f.aid = 1;
          f.tim_aids = {0, 1, 2, 3};
          f.packet = wire::make_icmp_packet(wire::Ipv4(10, 0, 0, 2),
                                            bed.server_ip(), wire::IcmpEcho{});
          f.channel = radio.channel();
          f.rssi_dbm = -40.0;
          radio.deliver(f);
          ++run.handed;
          EXPECT_EQ(state(), before)
              << wire::to_string(type) << " to " << dst.to_string()
              << " in " << bssid.to_string();
        }
      }
    }
  }
  bed.sim.run_until(sec(13));
  const sim::PerfCounters perf = bed.sim.perf();
  run.end = "popped=" + std::to_string(perf.events_popped) +
            " cancelled=" + std::to_string(perf.events_cancelled) + " " +
            state();
  return run;
}

TEST(RxFilter, RejectedFramesAreNoOpsForEveryReceiver) {
  {
    // A bare radio declares no filter beyond its own MAC: it hears every
    // frame type, so test radios see everything the medium delivers.
    trace::Testbed bed(quiet_air());
    phy::Radio bare(bed.medium, wire::MacAddress(7),
                    [] { return Position{0, 0}; });
    EXPECT_EQ(bare.rx_filter().overheard, wire::kAllFrameTypes);
    for (int t = 0; t <= static_cast<int>(wire::FrameType::kPsPoll); ++t) {
      EXPECT_TRUE(bare.rx_filter().overhears(static_cast<wire::FrameType>(t)));
    }
  }
  for (const Receiver receiver : {Receiver::kAp, Receiver::kSpider,
                                  Receiver::kFatVap, Receiver::kStock}) {
    const FilterRun injected = run_filter_world(receiver, true);
    const FilterRun twin = run_filter_world(receiver, false);
    const int where = static_cast<int>(receiver);
    // dst "other" and broadcast, two bssids, every type not overheard: the
    // AP overhears only probe requests, the drivers beacons and probe
    // responses.
    const std::uint64_t not_overheard = receiver == Receiver::kAp ? 11 : 10;
    EXPECT_EQ(injected.handed, 2 * 2 * not_overheard) << "receiver " << where;
    EXPECT_EQ(injected.end, twin.end) << "receiver " << where;
  }
}

}  // namespace
}  // namespace spider
