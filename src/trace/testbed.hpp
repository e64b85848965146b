#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/stock_wifi.hpp"
#include "core/link_manager.hpp"
#include "mac/ap.hpp"
#include "net/ap_network.hpp"
#include "net/wired.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "trace/metrics.hpp"
#include "transport/download.hpp"
#include "util/random.hpp"

namespace spider::trace {

/// Assembles the common fixture of every experiment: simulator, medium,
/// wired core with one download/ping server, and any number of APs (MAC +
/// DHCP + gateway + rate-limited backhaul). Tests and benches build their
/// topologies on top of this instead of hand-wiring eight objects each.
struct TestbedConfig {
  std::uint64_t seed = 1;
  phy::PropagationConfig propagation;
  wire::Ipv4 server_ip = wire::Ipv4(1, 1, 1, 1);
  tcp::TcpConfig tcp;
};

class Testbed {
 public:
  struct ApSpec {
    std::string ssid = "open-ap";
    wire::Channel channel = 6;
    Position position{0.0, 0.0};
    BitRate backhaul = mbps(1.5);
    Time backhaul_delay = msec(10);
    bool internet_connected = true;
    net::DhcpServerConfig dhcp;
    mac::ApConfig mac;
    /// Explicit AP identity (BSSID 0xA00000+index, subnet 10.x.y.0/24).
    /// Unset: assigned sequentially per testbed. Sharded formations pass
    /// the deployment-global index so an AP keeps the identity it would
    /// have in a serial run regardless of which shard hosts it.
    std::optional<std::uint64_t> index;
    /// Where the AP's MAC and network streams are forked from, in that
    /// order. Unset: the testbed's own Rng. The scenario kernel passes its
    /// world Rng so every AP draws in deployment-global order whichever
    /// shard hosts it.
    Rng* streams = nullptr;
  };

  struct ApBundle {
    std::unique_ptr<mac::AccessPoint> ap;
    std::unique_ptr<net::ApNetwork> network;
  };

  explicit Testbed(TestbedConfig config = {});
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Adds and starts an AP; subnets 10.0.x.0/24 are assigned in order.
  /// The returned reference stays valid for the Testbed's lifetime
  /// (bundles live in a deque).
  ApBundle& add_ap(const ApSpec& spec);

  /// Base of the client MAC-address space; AP BSSIDs (0xA00000+) and
  /// anything else live below it, so `mac >= kClientMacBase` classifies a
  /// radio as a client (the sharded fabric's shadow predicate).
  static constexpr std::uint64_t kClientMacBase = 0xC0'0000ULL;
  /// MAC block of client `i` (radio + virtual interfaces): a deployment
  /// -global identity, independent of which testbed builds the client.
  static constexpr std::uint64_t client_mac_block(std::uint64_t i) {
    return kClientMacBase + 0x100ULL * i;
  }

  /// Fresh MAC-address block for a client (radio + interfaces).
  std::uint64_t next_client_mac_block();

  wire::Ipv4 server_ip() const { return config_.server_ip; }
  std::deque<ApBundle>& aps() { return aps_; }
  Rng fork_rng() { return rng_.fork(); }

  sim::Simulator sim;
  phy::Medium medium;
  net::WiredNetwork wired;
  net::Host server;
  tcp::DownloadServer downloads;

 private:
  TestbedConfig config_;
  Rng rng_;
  std::deque<ApBundle> aps_;
  std::uint64_t next_subnet_ = 0;
  std::uint64_t next_client_block_ = 0;
};

/// Binds bulk-download applications to a driver's links: on every link-up
/// a fresh TCP download starts through that interface; delivered bytes
/// feed the ThroughputRecorder. Works for Spider/FatVAP (via LinkManager)
/// and the stock driver alike.
class DownloadHarness {
 public:
  DownloadHarness(sim::Simulator& simulator, wire::Ipv4 server_ip,
                  ThroughputRecorder& recorder);

  void attach(core::LinkManager& manager);
  void attach(base::StockWifiDriver& stock);

  /// Optional additional callbacks, invoked after the harness's own
  /// handling (install before or after attach; the harness owns the
  /// driver-side slot and forwards).
  void set_extra_callbacks(core::LinkManager::Callbacks extra) {
    extra_ = std::move(extra);
  }

  std::size_t active_downloads() const { return clients_.size(); }
  std::uint64_t links_seen() const { return links_seen_; }

 private:
  void link_up(core::VirtualInterface& vif);
  void link_down(core::VirtualInterface& vif);

  sim::Simulator& sim_;
  wire::Ipv4 server_ip_;
  ThroughputRecorder& recorder_;
  core::LinkManager::Callbacks extra_;
  // Keyed by interface identity (not index): a harness may be attached to
  // several drivers whose interfaces share index values.
  std::unordered_map<const core::VirtualInterface*,
                     std::unique_ptr<tcp::DownloadClient>> clients_;
  std::uint64_t links_seen_ = 0;
};

}  // namespace spider::trace
