#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/time.hpp"
#include "wire/packet.hpp"

namespace spider::net {

/// Timing behaviour of an AP's DHCP service. The paper's βmax (the
/// dominant term of a join in a non-virtualised client) is the server's
/// OFFER latency: home gateways answer anywhere from a few hundred
/// milliseconds to many seconds depending on load and upstream checks.
struct DhcpServerConfig {
  /// OFFER latency is drawn per DISCOVER from a lognormal with the given
  /// median and sigma, clamped to [min, max]: most home gateways answer in
  /// a few hundred milliseconds, a heavy tail takes many seconds (the
  /// paper's β reaches 10 s). A fresh draw per message means client
  /// retransmissions genuinely help, as observed in Cabernet.
  Time offer_delay_min = msec(100);
  Time offer_delay_median = msec(1200);
  double offer_delay_sigma = 1.5;
  Time offer_delay_max = sec(10.0);
  /// ACKs are quick — the allocation decision was made at OFFER time.
  /// This is also why Spider's per-BSSID lease cache (INIT-REBOOT: skip
  /// straight to REQUEST) is such a win.
  Time ack_delay_min = msec(20);
  Time ack_delay_max = msec(120);
  Time lease_duration = sec(3600);
  std::uint8_t first_host = 10;   ///< first assignable host number
  std::uint8_t last_host = 250;
  /// RFC 2131 says a server MUST NAK a REQUEST for an address it does not
  /// know; plenty of consumer gateways instead stay silent after a reboot
  /// wiped their pool, leaving INIT-REBOOT clients to burn their whole
  /// retransmit budget. False models that misbehaviour.
  bool nak_unknown_requests = true;
};

/// AP-side DHCP server managing a /24 pool. Transport is abstracted: the
/// owning ApNetwork feeds in client messages and supplies a send function
/// that delivers responses over the air to a specific client MAC.
class DhcpServer {
 public:
  /// (response packet, destination client MAC)
  using SendFn = std::function<void(wire::PacketPtr, wire::MacAddress)>;

  DhcpServer(sim::Simulator& simulator, wire::Ipv4 subnet_base,
             wire::Ipv4 gateway, DhcpServerConfig config, Rng rng);

  void set_send(SendFn send) { send_ = std::move(send); }

  /// Handles a client DHCP message received over the air.
  void on_message(const wire::DhcpMessage& msg, wire::MacAddress from);

  // --- fault-injection hooks (src/fault) ------------------------------
  /// While stalled the daemon drops every incoming message unanswered.
  void set_stalled(bool stalled) { stalled_ = stalled; }
  bool stalled() const { return stalled_; }
  /// NAK-after-OFFER storm: OFFERs still go out, every REQUEST is NAKed.
  void set_nak_requests(bool nak) { nak_requests_ = nak; }
  /// Forgets every lease and rewinds the allocator (power cycle or a
  /// mid-lease pool reset); clients keep addresses the server no longer
  /// honours.
  void reset_pool();

  /// IP -> MAC lookup for downlink forwarding (only bound leases).
  std::optional<wire::MacAddress> lookup_mac(wire::Ipv4 ip) const;
  std::optional<wire::Ipv4> lookup_ip(wire::MacAddress mac) const;

  wire::Ipv4 gateway() const { return gateway_; }
  wire::Ipv4 subnet_base() const { return subnet_base_; }
  std::size_t leases_outstanding() const { return by_mac_.size(); }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t naks_sent() const { return naks_sent_; }
  std::uint64_t releases_received() const { return releases_; }
  std::uint64_t messages_dropped() const { return dropped_; }

 private:
  struct LeaseRecord {
    wire::Ipv4 ip;
    Time expires_at{0};
  };

  Time draw_offer_delay();
  void handle_discover(const wire::DhcpMessage& msg, wire::MacAddress from);
  void handle_request(const wire::DhcpMessage& msg, wire::MacAddress from);
  void handle_release(const wire::DhcpMessage& msg, wire::MacAddress from);
  std::optional<wire::Ipv4> allocate(wire::MacAddress mac);
  void respond_after(Time delay, wire::DhcpMessage response, wire::MacAddress to);

  sim::Simulator& sim_;
  wire::Ipv4 subnet_base_;
  wire::Ipv4 gateway_;
  DhcpServerConfig config_;
  Rng rng_;
  SendFn send_;
  std::unordered_map<wire::MacAddress, LeaseRecord> by_mac_;
  std::unordered_map<wire::Ipv4, wire::MacAddress> by_ip_;
  std::uint8_t next_host_;
  bool stalled_ = false;
  bool nak_requests_ = false;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t naks_sent_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace spider::net
