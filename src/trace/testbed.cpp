#include "trace/testbed.hpp"

namespace spider::trace {

Testbed::Testbed(TestbedConfig config)
    : sim(),
      medium(sim, phy::Propagation(config.propagation),
             Rng(config.seed * 7919 + 1)),
      wired(sim),
      server(wired, config.server_ip),
      downloads(sim, server, config.tcp),
      config_(config),
      rng_(config.seed) {}

Testbed::ApBundle& Testbed::add_ap(const ApSpec& spec) {
  ApBundle bundle;
  mac::ApConfig mac_config = spec.mac;
  mac_config.ssid = spec.ssid;
  mac_config.channel = spec.channel;

  const auto index = spec.index ? *spec.index : next_subnet_++;
  Rng& streams = spec.streams != nullptr ? *spec.streams : rng_;
  const wire::MacAddress bssid(0xA0'0000ULL + index);
  bundle.ap = std::make_unique<mac::AccessPoint>(
      sim, medium, bssid, spec.position, mac_config, streams.fork());

  net::ApNetworkConfig net_config;
  net_config.backhaul.rate = spec.backhaul;
  net_config.backhaul.delay = spec.backhaul_delay;
  net_config.dhcp = spec.dhcp;
  net_config.internet_connected = spec.internet_connected;
  // 10.(index/250).(index%250).0/24 — unique per AP, as home NATs would be.
  const wire::Ipv4 subnet(10, static_cast<std::uint8_t>(index / 250),
                          static_cast<std::uint8_t>(index % 250), 0);
  bundle.network = std::make_unique<net::ApNetwork>(
      sim, *bundle.ap, wired, subnet, net_config, streams.fork());

  bundle.ap->start();
  aps_.push_back(std::move(bundle));
  return aps_.back();
}

std::uint64_t Testbed::next_client_mac_block() {
  return client_mac_block(next_client_block_++);
}

DownloadHarness::DownloadHarness(sim::Simulator& simulator,
                                 wire::Ipv4 server_ip,
                                 ThroughputRecorder& recorder)
    : sim_(simulator), server_ip_(server_ip), recorder_(recorder) {}

void DownloadHarness::attach(core::LinkManager& manager) {
  manager.set_callbacks({
      .on_link_up = [this](core::VirtualInterface& vif) { link_up(vif); },
      .on_link_down = [this](core::VirtualInterface& vif) { link_down(vif); },
  });
}

void DownloadHarness::attach(base::StockWifiDriver& stock) {
  stock.set_callbacks({
      .on_link_up = [this](core::VirtualInterface& vif) { link_up(vif); },
      .on_link_down = [this](core::VirtualInterface& vif) { link_down(vif); },
  });
}

void DownloadHarness::link_up(core::VirtualInterface& vif) {
  ++links_seen_;
  if (extra_.on_link_up) extra_.on_link_up(vif);
  auto client = std::make_unique<tcp::DownloadClient>(
      sim_, sim_.allocate_id(), vif.ip(), server_ip_,
      [&vif](wire::PacketPtr p) { vif.send_packet(std::move(p)); },
      [this](std::size_t bytes) { recorder_.record(sim_.now(), bytes); });
  vif.set_app_handler(
      [c = client.get()](const wire::Packet& p) { c->on_packet(p); });
  client->start();
  clients_[&vif] = std::move(client);
}

void DownloadHarness::link_down(core::VirtualInterface& vif) {
  if (extra_.on_link_down) extra_.on_link_down(vif);
  vif.set_app_handler(nullptr);
  clients_.erase(&vif);
}

}  // namespace spider::trace
