// Coverage for the remaining small public surfaces: radio address ownership,
// TCP congestion details, scanner cache hygiene, DHCP clamping.

#include <gtest/gtest.h>

#include <vector>

#include "mac/scanner.hpp"
#include "net/dhcp_server.hpp"
#include "net/link.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"
#include "util/stats.hpp"

namespace spider {
namespace {

TEST(Radio, OwnsAddressDefaultIsOwnMac) {
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation(phy::PropagationConfig{}), Rng(1));
  phy::Radio r(medium, wire::MacAddress(5), [] { return Position{}; });
  EXPECT_TRUE(r.rx_filter().addrs.contains(wire::MacAddress(5)));
  EXPECT_FALSE(r.rx_filter().addrs.contains(wire::MacAddress(6)));
}

TEST(Radio, AddressFilterExtendsOwnership) {
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation(phy::PropagationConfig{}), Rng(1));
  phy::Radio r(medium, wire::MacAddress(5), [] { return Position{}; });
  r.set_rx_filter({{5, 12}});  // own MAC plus six interface MACs
  EXPECT_FALSE(r.rx_filter().addrs.contains(wire::MacAddress(4)));
  EXPECT_TRUE(r.rx_filter().addrs.contains(wire::MacAddress(5)));
  EXPECT_TRUE(r.rx_filter().addrs.contains(wire::MacAddress(11)));
  EXPECT_FALSE(r.rx_filter().addrs.contains(wire::MacAddress(12)));
}

TEST(Medium, ArqDelaysRetriedFrames) {
  // With heavy loss, retried unicast frames arrive later than clean ones:
  // the mean arrival offset grows with the loss rate.
  auto mean_delay = [](double loss) {
    sim::Simulator sim;
    phy::PropagationConfig pc;
    pc.base_loss = loss;
    pc.good_radius_m = 100;
    phy::Medium medium(sim, phy::Propagation(pc), Rng(9));
    phy::Radio tx(medium, wire::MacAddress(1), [] { return Position{0, 0}; });
    phy::Radio rx(medium, wire::MacAddress(2), [] { return Position{10, 0}; });
    OnlineStats delays;
    Time sent_at{0};
    rx.set_receiver([&](const wire::Frame&) {
      delays.add(to_seconds(sim.now() - sent_at));
    });
    tx.tune(6);
    rx.tune(6);
    sim.run_until(msec(50));
    wire::Frame f;
    f.type = wire::FrameType::kData;
    f.dst = wire::MacAddress(2);
    f.size_bytes = 200;
    for (int i = 0; i < 500; ++i) {
      sent_at = sim.now();
      tx.send(f);
      sim.run_until(sim.now() + msec(10));
    }
    return delays.mean();
  };
  EXPECT_GT(mean_delay(0.5), mean_delay(0.0) * 1.3);
}

TEST(Tcp, FastRetransmitHalvesWindow) {
  sim::Simulator sim;
  int drop_next = 0;
  net::Link fwd(sim, net::LinkConfig{.rate = mbps(4), .delay = msec(20)});
  net::Link rev(sim, net::LinkConfig{.rate = mbps(4), .delay = msec(20)});
  tcp::TcpSender sender(sim, 1, wire::Ipv4(1, 1, 1, 1), wire::Ipv4(2, 2, 2, 2),
                        [&](wire::PacketPtr p) {
                          if (drop_next > 0) {
                            --drop_next;
                            return;
                          }
                          fwd.send(std::move(p));
                        });
  std::uint64_t delivered = 0;
  tcp::TcpReceiver receiver(1, wire::Ipv4(2, 2, 2, 2), wire::Ipv4(1, 1, 1, 1),
                            [&](wire::PacketPtr p) { rev.send(std::move(p)); },
                            [&](std::size_t b) { delivered += b; });
  fwd.set_sink([&](wire::PacketPtr p) { receiver.on_segment(*p->as<wire::TcpSegment>()); });
  rev.set_sink([&](wire::PacketPtr p) { sender.on_segment(*p->as<wire::TcpSegment>()); });
  sender.start();
  sim.run_until(sec(2));
  const double cwnd_before = sender.cwnd_segments();
  ASSERT_GT(cwnd_before, 8.0);
  drop_next = 1;
  sim.run_until(sec(3));
  EXPECT_GE(sender.fast_retransmits(), 1u);
  // Reno: cwnd came down to about half of the pre-loss flight.
  EXPECT_LT(sender.cwnd_segments(), cwnd_before * 0.75);
  EXPECT_GT(delivered, 0u);
}

TEST(Tcp, WindowCappedByReceiverWindow) {
  sim::Simulator sim;
  tcp::TcpConfig cfg;
  cfg.max_window_segments = 4.0;
  int in_flight_max = 0, sent = 0, acked = 0;
  tcp::TcpSender sender(
      sim, 1, wire::Ipv4(1, 1, 1, 1), wire::Ipv4(2, 2, 2, 2),
      [&](wire::PacketPtr) {
        ++sent;
        in_flight_max = std::max(in_flight_max, sent - acked);
      },
      cfg);
  sender.start();
  // ACK nothing: the sender must stop at the window, not spray forever.
  sim.run_until(msec(100));
  EXPECT_LE(in_flight_max, 4);
}

TEST(Scanner, CacheGarbageCollectsStaleEntries) {
  sim::Simulator sim;
  mac::Scanner scanner(sim, mac::ScannerConfig{.expiry = msec(100)});
  // 300 distinct stale APs trip the opportunistic GC (bound at 256).
  for (int i = 0; i < 300; ++i) {
    wire::Frame beacon;
    beacon.type = wire::FrameType::kBeacon;
    beacon.bssid = wire::Bssid(0x1000 + i);
    beacon.src = beacon.bssid;
    beacon.channel = 6;
    beacon.rssi_dbm = -50;
    scanner.on_frame(beacon);
  }
  EXPECT_LE(scanner.cache_size(), 300u);
  sim.run_until(sec(10));
  // All stale now; one more frame triggers collection.
  wire::Frame beacon;
  beacon.type = wire::FrameType::kBeacon;
  beacon.bssid = wire::Bssid(0x2000);
  beacon.src = beacon.bssid;
  beacon.channel = 6;
  beacon.rssi_dbm = -50;
  for (int i = 0; i < 300; ++i) scanner.on_frame(beacon);
  EXPECT_LE(scanner.cache_size(), 257u);
}

TEST(DhcpServer, OfferDelayClampedToConfiguredBand) {
  sim::Simulator sim;
  net::DhcpServerConfig cfg;
  cfg.offer_delay_min = msec(400);
  cfg.offer_delay_median = msec(1);  // pathological: median below the floor
  cfg.offer_delay_max = msec(500);
  net::DhcpServer server(sim, wire::Ipv4(10, 0, 0, 0), wire::Ipv4(10, 0, 0, 1),
                         cfg, Rng(3));
  std::vector<Time> arrivals;
  server.set_send([&](wire::PacketPtr, wire::MacAddress) {
    arrivals.push_back(sim.now());
  });
  for (int i = 0; i < 50; ++i) {
    wire::DhcpMessage d{.type = wire::DhcpMessage::Type::kDiscover,
                        .xid = static_cast<std::uint32_t>(i),
                        .client_mac = wire::MacAddress(0xC0 + i)};
    const Time sent = sim.now();
    server.on_message(d, d.client_mac);
    sim.run_until(sim.now() + sec(1));
    ASSERT_FALSE(arrivals.empty());
    const Time delay = arrivals.back() - sent;
    EXPECT_GE(delay, msec(400));
    EXPECT_LE(delay, msec(500));
  }
}

TEST(Link, QueueDepthVisible) {
  sim::Simulator sim;
  net::Link link(sim, net::LinkConfig{.rate = kbps(64), .delay = Time{0},
                                      .queue_packets = 10});
  auto p = wire::make_tcp_packet(wire::Ipv4(1, 0, 0, 1), wire::Ipv4(1, 0, 0, 2),
                                 wire::TcpSegment{.payload_bytes = 1000});
  for (int i = 0; i < 5; ++i) link.send(p);
  EXPECT_EQ(link.queue_depth(), 4u);  // one serialising + four queued
  sim.run_until(sec(10));
  EXPECT_EQ(link.queue_depth(), 0u);
}

}  // namespace
}  // namespace spider
