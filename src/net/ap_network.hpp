#pragma once

#include <memory>

#include "mac/ap.hpp"
#include "net/dhcp_server.hpp"
#include "net/link.hpp"
#include "net/wired.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace spider::net {

/// Everything behind one access point's Ethernet port: its DHCP service,
/// its gateway function (NAT-free routing of the /24 it owns, plus
/// answering gateway pings), and the rate-limited backhaul connecting it
/// to the wired core.
struct ApNetworkConfig {
  LinkConfig backhaul;          ///< applied to both directions
  DhcpServerConfig dhcp;
  /// When false the AP behaves like a captive portal / broken uplink:
  /// association and DHCP succeed, the gateway answers pings, but nothing
  /// is forwarded to or from the wired core.
  bool internet_connected = true;
};

class ApNetwork {
 public:
  /// `subnet_base` must be a /24 base (host byte 0); the gateway takes .1.
  ApNetwork(sim::Simulator& simulator, mac::AccessPoint& ap,
            WiredNetwork& wired, wire::Ipv4 subnet_base, ApNetworkConfig config,
            Rng rng);
  ApNetwork(const ApNetwork&) = delete;
  ApNetwork& operator=(const ApNetwork&) = delete;

  wire::Ipv4 gateway_ip() const { return dhcp_.gateway(); }
  wire::Ipv4 subnet_base() const { return dhcp_.subnet_base(); }
  const DhcpServer& dhcp() const { return dhcp_; }
  DhcpServer& dhcp() { return dhcp_; }
  mac::AccessPoint& ap() { return ap_; }
  Link& uplink() { return uplink_; }
  Link& downlink() { return downlink_; }

  // --- fault-injection hooks (src/fault) ------------------------------
  /// Gateway flap: while down the WAN/routing side is dead — gateway pings
  /// go unanswered and nothing is forwarded either way. The AP-local DHCP
  /// daemon keeps serving (it runs on the box, not behind the WAN).
  void set_gateway_up(bool up) { gateway_up_ = up; }
  bool gateway_up() const { return gateway_up_; }

 private:
  void on_uplink(wire::PacketPtr packet, wire::MacAddress from);
  void on_downlink(wire::PacketPtr packet);

  sim::Simulator& sim_;
  mac::AccessPoint& ap_;
  bool internet_connected_;
  bool gateway_up_ = true;
  DhcpServer dhcp_;
  Link uplink_;
  Link downlink_;
};

}  // namespace spider::net
