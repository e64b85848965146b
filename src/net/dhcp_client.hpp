#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "sim/simulator.hpp"
#include "util/time.hpp"
#include "wire/packet.hpp"

namespace spider::net {

/// A bound DHCP lease.
struct Lease {
  wire::Ipv4 ip;
  wire::Ipv4 gateway;
  wire::Ipv4 server_id;
  Time expires_at{0};
};

/// Client-side DHCP timers.
///
/// The defaults mirror the stock behaviour the paper describes ("the client
/// attempts to acquire a lease for 3 seconds, and it is idle for 60 seconds
/// if it fails"): three 1 s-spaced transmissions per phase. The mobile
/// experiments reduce `retx_timeout` to 100-600 ms, shrinking the attempt
/// window proportionally — which is exactly the trade-off of Table 3 /
/// Fig. 14 (faster medians, more failures).
struct DhcpClientConfig {
  Time retx_timeout = sec(1);
  int max_sends = 3;  ///< transmissions per phase before giving up
  /// Renew at this fraction of the lease (RFC 2131's T1). Renewals are
  /// unicast REQUESTs; failures retry on the retransmit timer until the
  /// lease expires.
  double renew_fraction = 0.5;
};

/// Client DHCP state machine (DISCOVER -> OFFER -> REQUEST -> ACK), with an
/// INIT-REBOOT fast path when a cached lease is supplied. Outgoing packets
/// are handed to the driver, which queues them per channel — so the
/// retransmit clock keeps running while the card serves other channels,
/// reproducing the lost-response dynamics of the paper's join model.
class DhcpClient {
 public:
  using SendFn = std::function<void(wire::PacketPtr)>;

  struct Callbacks {
    std::function<void(const Lease&)> on_bound;
    std::function<void()> on_failed;
    /// Bound lease expired without a successful renewal.
    std::function<void()> on_lease_lost;
    /// An INIT-REBOOT REQUEST was NAKed: the cached lease the caller
    /// supplied is dead (server rebooted or reassigned the address). Fires
    /// before the internal fallback to DISCOVER, so owners of a LeaseCache
    /// can invalidate the entry the moment it is disproven.
    std::function<void()> on_cache_rejected;
  };

  enum class State { kIdle, kSelecting, kRequesting, kBound, kFailed };

  DhcpClient(sim::Simulator& simulator, wire::MacAddress mac,
             DhcpClientConfig config);
  ~DhcpClient();
  DhcpClient(const DhcpClient&) = delete;
  DhcpClient& operator=(const DhcpClient&) = delete;

  void set_send(SendFn send) { send_ = std::move(send); }
  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }
  void set_config(const DhcpClientConfig& config) { config_ = config; }
  const DhcpClientConfig& config() const { return config_; }
  /// Flight-recorder lane (obs::track::client of the owning interface).
  void set_trace_track(std::uint32_t track) { trace_track_ = track; }

  /// Begins acquisition. With a cached lease the client attempts
  /// INIT-REBOOT (straight to REQUEST); a NAK falls back to full DISCOVER.
  void start(std::optional<Lease> cached = std::nullopt);

  void abort();

  /// Relinquishes a bound lease (DHCPRELEASE, fire-and-forget) and
  /// returns to idle. No-op unless bound.
  void release();

  /// Feed DHCP packets received on the interface.
  void on_packet(const wire::Packet& packet);

  State state() const { return state_; }
  bool bound() const { return state_ == State::kBound; }
  const std::optional<Lease>& lease() const { return lease_; }

 private:
  void send_discover();
  void send_request();
  void schedule_renew();
  void send_renew();
  void arm_timer(std::function<void()> on_expiry);
  void fail();

  sim::Simulator& sim_;
  wire::MacAddress mac_;
  DhcpClientConfig config_;
  SendFn send_;
  Callbacks callbacks_;

  State state_ = State::kIdle;
  std::uint32_t trace_track_ = 0;
  std::uint32_t xid_ = 0;
  int sends_left_ = 0;
  bool from_cache_ = false;
  wire::Ipv4 pending_ip_;
  wire::Ipv4 pending_server_;
  wire::Ipv4 pending_gateway_;
  bool renewing_ = false;
  std::optional<Lease> lease_;
  sim::EventHandle timer_;
  sim::EventHandle renew_timer_;
  std::uint32_t next_xid_ = 1;
};

/// Per-BSSID lease cache (§3.2.2: "per-BSSID dhcp caches are used to speed
/// up the process of obtaining a lease"). Entries expire with the lease.
class LeaseCache {
 public:
  void store(wire::Bssid bssid, const Lease& lease) { cache_[bssid] = lease; }
  void invalidate(wire::Bssid bssid) { cache_.erase(bssid); }

  /// Returns the cached lease if it is still valid at `now`.
  std::optional<Lease> find(wire::Bssid bssid, Time now) const;

  std::size_t size() const { return cache_.size(); }

 private:
  std::unordered_map<wire::Bssid, Lease> cache_;
};

}  // namespace spider::net
