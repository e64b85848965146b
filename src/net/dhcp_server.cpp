#include "net/dhcp_server.hpp"

#include <algorithm>
#include <cmath>

namespace spider::net {

using wire::DhcpMessage;

DhcpServer::DhcpServer(sim::Simulator& simulator, wire::Ipv4 subnet_base,
                       wire::Ipv4 gateway, DhcpServerConfig config, Rng rng)
    : sim_(simulator),
      subnet_base_(subnet_base),
      gateway_(gateway),
      config_(config),
      rng_(rng),
      next_host_(config.first_host) {}

void DhcpServer::reset_pool() {
  by_mac_.clear();
  by_ip_.clear();
  next_host_ = config_.first_host;
}

void DhcpServer::on_message(const DhcpMessage& msg, wire::MacAddress from) {
  if (stalled_) {
    ++dropped_;
    return;
  }
  switch (msg.type) {
    case DhcpMessage::Type::kDiscover:
      handle_discover(msg, from);
      return;
    case DhcpMessage::Type::kRequest:
      handle_request(msg, from);
      return;
    case DhcpMessage::Type::kRelease:
      handle_release(msg, from);
      return;
    default:
      return;  // OFFER/ACK/NAK are server->client only
  }
}

std::optional<wire::Ipv4> DhcpServer::allocate(wire::MacAddress mac) {
  if (auto it = by_mac_.find(mac); it != by_mac_.end()) {
    it->second.expires_at = sim_.now() + config_.lease_duration;
    return it->second.ip;
  }
  // Reclaim expired leases lazily when the pool wraps.
  for (int attempts = config_.last_host - config_.first_host + 1; attempts > 0;
       --attempts) {
    const wire::Ipv4 candidate = subnet_base_.with_host(next_host_);
    next_host_ = next_host_ >= config_.last_host
                     ? config_.first_host
                     : static_cast<std::uint8_t>(next_host_ + 1);
    auto existing = by_ip_.find(candidate);
    if (existing != by_ip_.end()) {
      auto& rec = by_mac_[existing->second];
      if (rec.expires_at > sim_.now()) continue;  // still held
      by_mac_.erase(existing->second);
      by_ip_.erase(existing);
    }
    by_mac_[mac] = LeaseRecord{candidate, sim_.now() + config_.lease_duration};
    by_ip_[candidate] = mac;
    return candidate;
  }
  return std::nullopt;  // pool exhausted
}

void DhcpServer::respond_after(Time delay, DhcpMessage response,
                               wire::MacAddress to) {
  sim_.post(delay, [this, response, to] {
    if (!send_) return;
    // DHCP server responses are addressed at L2; the client has no
    // routable IP yet, so src is the server/gateway and dst is broadcast
    // per RFC 2131's pre-bind behaviour.
    send_(wire::make_dhcp_packet(gateway_, wire::Ipv4(255, 255, 255, 255),
                                 response),
          to);
  });
}

Time DhcpServer::draw_offer_delay() {
  const double median_s = to_seconds(config_.offer_delay_median);
  const double sample_s =
      rng_.lognormal(std::log(std::max(1e-3, median_s)),
                     config_.offer_delay_sigma);
  const Time sample = sec(sample_s);
  return std::clamp(sample, config_.offer_delay_min, config_.offer_delay_max);
}

void DhcpServer::handle_discover(const DhcpMessage& msg, wire::MacAddress from) {
  const auto ip = allocate(from);
  if (!ip) return;  // exhausted pool: silent, client times out

  DhcpMessage offer;
  offer.type = DhcpMessage::Type::kOffer;
  offer.xid = msg.xid;
  offer.client_mac = from;
  offer.offered_ip = *ip;
  offer.server_id = gateway_;
  offer.gateway = gateway_;
  offer.lease_duration = config_.lease_duration;

  respond_after(draw_offer_delay(), offer, from);
}

void DhcpServer::handle_request(const DhcpMessage& msg, wire::MacAddress from) {
  DhcpMessage resp;
  resp.xid = msg.xid;
  resp.client_mac = from;
  resp.server_id = gateway_;
  resp.gateway = gateway_;

  auto it = by_mac_.find(from);
  const bool valid = !nak_requests_ && it != by_mac_.end() &&
                     it->second.ip == msg.offered_ip;
  if (valid) {
    it->second.expires_at = sim_.now() + config_.lease_duration;
    resp.type = DhcpMessage::Type::kAck;
    resp.offered_ip = it->second.ip;
    resp.lease_duration = config_.lease_duration;
    ++acks_sent_;
  } else {
    // INIT-REBOOT with a lease we no longer honour (e.g. cache from a past
    // drive-by that has since been reassigned or expired), or a forced
    // NAK-after-OFFER window. Misconfigured gateways skip even the NAK.
    if (!config_.nak_unknown_requests && !nak_requests_) {
      ++dropped_;
      return;
    }
    resp.type = DhcpMessage::Type::kNak;
    ++naks_sent_;
  }
  const Time delay = usec(rng_.uniform_int(config_.ack_delay_min.count(),
                                           config_.ack_delay_max.count()));
  respond_after(delay, resp, from);
}

void DhcpServer::handle_release(const DhcpMessage&, wire::MacAddress from) {
  // RFC 2131 §4.4.6: the client relinquishes its lease; no reply is sent.
  ++releases_;
  auto it = by_mac_.find(from);
  if (it == by_mac_.end()) return;
  by_ip_.erase(it->second.ip);
  by_mac_.erase(it);
}

std::optional<wire::MacAddress> DhcpServer::lookup_mac(wire::Ipv4 ip) const {
  auto it = by_ip_.find(ip);
  if (it == by_ip_.end()) return std::nullopt;
  return it->second;
}

std::optional<wire::Ipv4> DhcpServer::lookup_ip(wire::MacAddress mac) const {
  auto it = by_mac_.find(mac);
  if (it == by_mac_.end()) return std::nullopt;
  return it->second.ip;
}

}  // namespace spider::net
