#include "net/dhcp_client.hpp"

#include "obs/tracer.hpp"

namespace spider::net {

using wire::DhcpMessage;

DhcpClient::DhcpClient(sim::Simulator& simulator, wire::MacAddress mac,
                       DhcpClientConfig config)
    : sim_(simulator), mac_(mac), config_(config) {}

DhcpClient::~DhcpClient() {
  timer_.cancel();
  renew_timer_.cancel();
}

void DhcpClient::start(std::optional<Lease> cached) {
  abort();
  xid_ = next_xid_++;
  if (cached && cached->expires_at > sim_.now()) {
    // INIT-REBOOT: re-request the remembered address directly.
    from_cache_ = true;
    pending_ip_ = cached->ip;
    pending_server_ = cached->server_id;
    pending_gateway_ = cached->gateway;
    state_ = State::kRequesting;
    sends_left_ = config_.max_sends;
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kDhcpRequest, .aux = 1,
                 .track = trace_track_);
    send_request();
  } else {
    from_cache_ = false;
    state_ = State::kSelecting;
    sends_left_ = config_.max_sends;
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kDhcpDiscover,
                 .track = trace_track_);
    send_discover();
  }
}

void DhcpClient::abort() {
  timer_.cancel();
  renew_timer_.cancel();
  renewing_ = false;
  state_ = State::kIdle;
  lease_.reset();
}

void DhcpClient::release() {
  if (state_ != State::kBound || !lease_) {
    abort();
    return;
  }
  DhcpMessage msg;
  msg.type = DhcpMessage::Type::kRelease;
  msg.xid = xid_;
  msg.client_mac = mac_;
  msg.offered_ip = lease_->ip;
  msg.server_id = lease_->server_id;
  if (send_) {
    send_(wire::make_dhcp_packet(lease_->ip, lease_->server_id, msg));
  }
  abort();
}

void DhcpClient::schedule_renew() {
  renew_timer_.cancel();
  const Time lease_left = lease_->expires_at - sim_.now();
  const auto t1 = Time{static_cast<std::int64_t>(
      config_.renew_fraction * static_cast<double>(lease_left.count()))};
  renew_timer_ = sim_.schedule(std::max(t1, Time{1}), [this] { send_renew(); });
}

void DhcpClient::send_renew() {
  if (state_ != State::kBound || !lease_) return;
  if (sim_.now() >= lease_->expires_at) {
    // Expired without a successful renewal: the address is gone.
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kDhcpLeaseLost,
                 .track = trace_track_);
    const auto cb = callbacks_.on_lease_lost;
    abort();
    if (cb) cb();
    return;
  }
  renewing_ = true;
  DhcpMessage msg;
  msg.type = DhcpMessage::Type::kRequest;
  msg.xid = xid_;
  msg.client_mac = mac_;
  msg.offered_ip = lease_->ip;
  msg.server_id = lease_->server_id;
  if (send_) {
    send_(wire::make_dhcp_packet(lease_->ip, lease_->server_id, msg));
  }
  // Retry on the retransmit timer until the ACK lands or the lease dies.
  renew_timer_ = sim_.schedule(config_.retx_timeout, [this] { send_renew(); });
}

void DhcpClient::arm_timer(std::function<void()> on_expiry) {
  timer_.cancel();
  timer_ = sim_.schedule(config_.retx_timeout, std::move(on_expiry));
}

void DhcpClient::fail() {
  timer_.cancel();
  state_ = State::kFailed;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kDhcpFail,
               .aux = static_cast<std::uint8_t>(from_cache_ ? 1 : 0),
               .track = trace_track_);
  if (callbacks_.on_failed) callbacks_.on_failed();
}

void DhcpClient::send_discover() {
  if (sends_left_-- <= 0) {
    fail();
    return;
  }
  DhcpMessage msg;
  msg.type = DhcpMessage::Type::kDiscover;
  msg.xid = xid_;
  msg.client_mac = mac_;
  if (send_) {
    send_(wire::make_dhcp_packet(wire::Ipv4(), wire::Ipv4(255, 255, 255, 255),
                                 msg));
  }
  arm_timer([this] {
    if (state_ == State::kSelecting) send_discover();
  });
}

void DhcpClient::send_request() {
  if (sends_left_-- <= 0) {
    fail();
    return;
  }
  DhcpMessage msg;
  msg.type = DhcpMessage::Type::kRequest;
  msg.xid = xid_;
  msg.client_mac = mac_;
  msg.offered_ip = pending_ip_;
  msg.server_id = pending_server_;
  if (send_) {
    send_(wire::make_dhcp_packet(wire::Ipv4(), wire::Ipv4(255, 255, 255, 255),
                                 msg));
  }
  arm_timer([this] {
    if (state_ == State::kRequesting) send_request();
  });
}

void DhcpClient::on_packet(const wire::Packet& packet) {
  const auto* msg = packet.as<DhcpMessage>();
  if (!msg || msg->xid != xid_ || msg->client_mac != mac_) return;

  switch (msg->type) {
    case DhcpMessage::Type::kOffer:
      if (state_ != State::kSelecting) return;
      pending_ip_ = msg->offered_ip;
      pending_server_ = msg->server_id;
      pending_gateway_ = msg->gateway;
      state_ = State::kRequesting;
      sends_left_ = config_.max_sends;
      send_request();
      return;

    case DhcpMessage::Type::kAck: {
      if (state_ == State::kBound && renewing_) {
        // Renewal ACK: extend in place, no re-bind notification.
        renewing_ = false;
        lease_->expires_at = sim_.now() + msg->lease_duration;
        schedule_renew();
        return;
      }
      if (state_ != State::kRequesting) return;
      timer_.cancel();
      state_ = State::kBound;
      lease_ = Lease{msg->offered_ip, pending_gateway_, msg->server_id,
                     sim_.now() + msg->lease_duration};
      SPIDER_TRACE(sim_, .kind = obs::TraceKind::kDhcpBound,
                   .aux = static_cast<std::uint8_t>(from_cache_ ? 1 : 0),
                   .track = trace_track_,
                   .value = to_seconds(msg->lease_duration));
      schedule_renew();
      if (callbacks_.on_bound) callbacks_.on_bound(*lease_);
      return;
    }

    case DhcpMessage::Type::kNak:
      SPIDER_TRACE(sim_, .kind = obs::TraceKind::kDhcpNak,
                   .aux = static_cast<std::uint8_t>(
                       state_ == State::kBound && renewing_ ? 1 : 0),
                   .track = trace_track_);
      if (state_ == State::kBound && renewing_) {
        // Server refused the renewal: the lease is dead now.
        SPIDER_TRACE(sim_, .kind = obs::TraceKind::kDhcpLeaseLost,
                     .track = trace_track_);
        const auto cb = callbacks_.on_lease_lost;
        abort();
        if (cb) cb();
        return;
      }
      if (state_ != State::kRequesting) return;
      if (from_cache_) {
        // The cached lease is stale; restart with a fresh DISCOVER.
        from_cache_ = false;
        if (callbacks_.on_cache_rejected) callbacks_.on_cache_rejected();
        state_ = State::kSelecting;
        sends_left_ = config_.max_sends;
        send_discover();
      } else {
        fail();
      }
      return;

    default:
      return;
  }
}

std::optional<Lease> LeaseCache::find(wire::Bssid bssid, Time now) const {
  auto it = cache_.find(bssid);
  if (it == cache_.end() || it->second.expires_at <= now) return std::nullopt;
  return it->second;
}

}  // namespace spider::net
