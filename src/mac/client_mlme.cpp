#include "mac/client_mlme.hpp"

#include <utility>

#include "obs/tracer.hpp"

namespace spider::mac {

using wire::Frame;
using wire::FrameType;

const char* to_string(ClientMlme::State s) {
  switch (s) {
    case ClientMlme::State::kIdle: return "Idle";
    case ClientMlme::State::kAuthenticating: return "Authenticating";
    case ClientMlme::State::kAssociating: return "Associating";
    case ClientMlme::State::kAssociated: return "Associated";
  }
  return "?";
}

const char* to_string(JoinPhase p) {
  switch (p) {
    case JoinPhase::kAssociation: return "association";
    case JoinPhase::kDhcp: return "dhcp";
    case JoinPhase::kEndToEnd: return "end-to-end";
  }
  return "?";
}

ClientMlme::ClientMlme(sim::Simulator& simulator, wire::MacAddress self,
                       MlmeConfig config)
    : sim_(simulator), self_(self), config_(config) {}

ClientMlme::~ClientMlme() { timer_.cancel(); }

Frame ClientMlme::make_mgmt(FrameType type) const {
  Frame f;
  f.type = type;
  f.src = self_;
  f.dst = bssid_;
  f.bssid = bssid_;
  f.size_bytes = wire::kMgmtFrameBytes;
  return f;
}

void ClientMlme::start_join(wire::Bssid bssid, wire::Channel channel) {
  abort();
  bssid_ = bssid;
  channel_ = channel;
  state_ = State::kAuthenticating;
  retries_left_ = config_.max_retries;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kAuthStart,
               .channel = static_cast<std::int16_t>(channel_),
               .track = trace_track_, .id = bssid_.raw());
  send_current_message();
}

void ClientMlme::abort() {
  timer_.cancel();
  state_ = State::kIdle;
  aid_ = 0;
}

void ClientMlme::disassociate() {
  if (state_ == State::kAssociated && send_) {
    send_(make_mgmt(FrameType::kDisassoc));
  }
  abort();
}

void ClientMlme::send_current_message() {
  const FrameType type = state_ == State::kAuthenticating
                             ? FrameType::kAuthRequest
                             : FrameType::kAssocRequest;
  const bool transmitted = send_ && send_(make_mgmt(type));
  if (transmitted) {
    arm_timeout();
  } else {
    // Radio is parked elsewhere: poll until our channel comes up. This
    // does not consume a retry — the message never hit the air.
    timer_.cancel();
    timer_ = sim_.schedule(config_.offchannel_poll, [this] {
      if (state_ == State::kAuthenticating || state_ == State::kAssociating) {
        send_current_message();
      }
    });
  }
}

void ClientMlme::arm_timeout() {
  timer_.cancel();
  timer_ = sim_.schedule(config_.ll_timeout, [this] {
    if (state_ != State::kAuthenticating && state_ != State::kAssociating) return;
    if (retries_left_-- <= 0) {
      fail(JoinPhase::kAssociation);
      return;
    }
    send_current_message();
  });
}

void ClientMlme::fail(JoinPhase phase) {
  timer_.cancel();
  state_ = State::kIdle;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kAssocFail,
               .channel = static_cast<std::int16_t>(channel_),
               .track = trace_track_, .id = bssid_.raw());
  if (callbacks_.on_failed) callbacks_.on_failed(phase);
}

void ClientMlme::on_frame(const Frame& frame) {
  if (frame.src != bssid_ && !bssid_.is_null()) {
    // Frames from other BSSes are not ours (the scanner sees them anyway).
    if (frame.type != FrameType::kDeauth) return;
  }
  switch (frame.type) {
    case FrameType::kAuthResponse:
      if (state_ != State::kAuthenticating) return;
      if (frame.status != 0) {
        fail(JoinPhase::kAssociation);
        return;
      }
      state_ = State::kAssociating;
      retries_left_ = config_.max_retries;
      SPIDER_TRACE(sim_, .kind = obs::TraceKind::kAssocStart,
                   .channel = static_cast<std::int16_t>(channel_),
                   .track = trace_track_, .id = bssid_.raw());
      send_current_message();
      return;

    case FrameType::kAssocResponse:
      if (state_ != State::kAssociating) return;
      if (frame.status != 0) {
        fail(JoinPhase::kAssociation);
        return;
      }
      timer_.cancel();
      state_ = State::kAssociated;
      aid_ = frame.aid;
      SPIDER_TRACE(sim_, .kind = obs::TraceKind::kAssocOk,
                   .channel = static_cast<std::int16_t>(channel_),
                   .track = trace_track_, .id = bssid_.raw(),
                   .value = static_cast<double>(aid_));
      if (callbacks_.on_associated) callbacks_.on_associated(aid_);
      return;

    case FrameType::kDeauth:
    case FrameType::kDisassoc:
      if (state_ == State::kAssociated && frame.src == bssid_) {
        SPIDER_TRACE(sim_, .kind = obs::TraceKind::kMacLinkLost,
                     .channel = static_cast<std::int16_t>(channel_),
                     .track = trace_track_, .id = bssid_.raw());
        abort();
        if (callbacks_.on_link_lost) callbacks_.on_link_lost();
      }
      return;

    default:
      return;
  }
}

}  // namespace spider::mac
