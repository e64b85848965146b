#include "mac/ap.hpp"

#include <utility>

#include "obs/tracer.hpp"

namespace spider::mac {

using wire::Frame;
using wire::FrameType;

namespace {

// APs never move: declaring the radio static keeps it out of the medium's
// per-timestamp mobile sweep, so city-scale AP populations cost nothing to
// keep bucketed (DESIGN.md §10).
phy::RadioConfig stationary_radio() {
  phy::RadioConfig config;
  config.mobile = false;
  return config;
}

}  // namespace

AccessPoint::AccessPoint(sim::Simulator& simulator, phy::Medium& medium,
                         wire::MacAddress bssid, Position position,
                         ApConfig config, Rng rng)
    : sim_(simulator),
      config_(std::move(config)),
      position_(position),
      rng_(rng),
      radio_(medium, bssid, [position] { return position; },
             stationary_radio()) {
  radio_.set_receiver([this](const Frame& f) { on_frame(f); });
  // The hardware filter on_frame relies on: frames addressed to the BSSID,
  // plus every probe request (broadcast or directed at another AP).
  radio_.set_rx_filter({{bssid.raw(), bssid.raw() + 1},
                        wire::frame_type_bit(FrameType::kProbeRequest)});
  // The AP parks on its channel permanently; the constructor-time tune pays
  // the one-off reset before the experiment starts.
  radio_.tune(config_.channel);
}

void AccessPoint::start() {
  // Random phase: co-located APs must not beacon in lockstep.
  beacon_event_ = sim_.schedule(
      usec(rng_.uniform_int(0, config_.beacon_interval.count())), [this] {
        send_beacon();
        schedule_next_beacon();
      });
  purge_timer_.emplace(sim_, sec(1), [this] { purge_inactive(); });
  purge_timer_->start();
}

void AccessPoint::power_off() {
  if (!powered_) return;
  powered_ = false;
  beacon_event_.cancel();
  purge_timer_.reset();
  // The table dies with the power; listeners learn of the silent departures
  // so higher layers can account for them (the stations themselves only
  // notice through timeouts, as with real hardware).
  for (const auto& [mac, state] : clients_) {
    if (assoc_listener_) assoc_listener_(mac, false);
  }
  clients_.clear();
}

void AccessPoint::power_on() {
  if (powered_) return;
  powered_ = true;
  start();
}

std::size_t AccessPoint::purge_psm_buffers() {
  std::size_t dropped = 0;
  for (auto& [mac, state] : clients_) {
    dropped += state.psm_queue.size();
    state.psm_queue.clear();
  }
  psm_drops_ += dropped;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kPsmPurge,
               .channel = static_cast<std::int16_t>(config_.channel),
               .track = obs::track::ap(bssid().raw()),
               .value = static_cast<double>(dropped));
  return dropped;
}

void AccessPoint::schedule_next_beacon() {
  const auto jitter = config_.beacon_jitter.count();
  const Time next = config_.beacon_interval +
                    usec(jitter > 0 ? rng_.uniform_int(-jitter, jitter) : 0);
  beacon_event_ = sim_.schedule(next, [this] {
    send_beacon();
    schedule_next_beacon();
  });
}

Time AccessPoint::mgmt_delay() {
  return usec(rng_.uniform_int(config_.mgmt_delay_min.count(),
                               config_.mgmt_delay_max.count()));
}

void AccessPoint::send_beacon() {
  if (!powered_ || beacon_silenced_) return;
  Frame beacon;
  beacon.type = FrameType::kBeacon;
  beacon.src = bssid();
  beacon.dst = wire::MacAddress::broadcast();
  beacon.bssid = bssid();
  beacon.ssid = config_.ssid;
  beacon.size_bytes = wire::kBeaconFrameBytes;
  // TIM: advertise which sleeping stations have buffered traffic.
  for (const auto& [mac, state] : clients_) {
    if (state.power_save && !state.psm_queue.empty()) {
      beacon.tim_aids.push_back(state.aid);
    }
  }
  radio_.send(std::move(beacon));
}

void AccessPoint::on_frame(const Frame& frame) {
  if (!powered_) return;  // blackout: the radio may hear, nobody is home
  // Act on probe requests that are broadcast or ours, and on requests and
  // data/control frames addressed to us within our BSS: a subset of what
  // the radio's filter passes, so the medium may drop everything else.
  if (frame.type == FrameType::kProbeRequest) {
    if (frame.dst.is_broadcast() || frame.dst == bssid()) handle_probe(frame);
    return;
  }
  if (frame.dst != bssid()) return;
  switch (frame.type) {
    case FrameType::kAuthRequest:
      handle_auth(frame);
      return;
    case FrameType::kAssocRequest:
      handle_assoc(frame);
      return;
    case FrameType::kData:
    case FrameType::kNullData:
    case FrameType::kPsPoll:
      if (frame.bssid == bssid()) handle_data(frame);
      return;
    case FrameType::kDisassoc:
    case FrameType::kDeauth:
      if (frame.bssid == bssid()) {
        if (clients_.erase(frame.src) > 0 && assoc_listener_) {
          assoc_listener_(frame.src, false);
        }
      }
      return;
    default:
      return;  // station-bound types (responses) are not ours to act on
  }
}

void AccessPoint::handle_probe(const Frame& frame) {
  const auto requester = frame.src;
  sim_.post(mgmt_delay(), [this, requester] {
    if (!powered_) return;  // power lost before the response went out
    Frame resp;
    resp.type = FrameType::kProbeResponse;
    resp.src = bssid();
    resp.dst = requester;
    resp.bssid = bssid();
    resp.ssid = config_.ssid;
    resp.size_bytes = wire::kMgmtFrameBytes;
    radio_.send(std::move(resp));
  });
}

void AccessPoint::handle_auth(const Frame& frame) {
  const auto requester = frame.src;
  sim_.post(mgmt_delay(), [this, requester] {
    if (!powered_) return;
    Frame resp;
    resp.type = FrameType::kAuthResponse;
    resp.src = bssid();
    resp.dst = requester;
    resp.bssid = bssid();
    resp.status = 0;  // open system: always accept
    resp.size_bytes = wire::kMgmtFrameBytes;
    radio_.send(std::move(resp));
  });
}

void AccessPoint::handle_assoc(const Frame& frame) {
  const auto requester = frame.src;
  if (config_.max_clients > 0 && !clients_.contains(requester) &&
      clients_.size() >= config_.max_clients) {
    ++assoc_denials_;
    sim_.post(mgmt_delay(), [this, requester] {
      if (!powered_) return;
      Frame resp;
      resp.type = FrameType::kAssocResponse;
      resp.src = bssid();
      resp.dst = requester;
      resp.bssid = bssid();
      resp.status = 17;  // IEEE: denied, AP unable to handle more stations
      resp.size_bytes = wire::kMgmtFrameBytes;
      radio_.send(std::move(resp));
    });
    return;
  }
  auto [it, inserted] = clients_.try_emplace(requester);
  if (inserted) {
    it->second.aid = next_aid_++;
  }
  it->second.last_heard = sim_.now();
  const std::uint16_t aid = it->second.aid;
  ++assoc_grants_;
  sim_.post(mgmt_delay(), [this, requester, aid] {
    if (!powered_) return;
    Frame resp;
    resp.type = FrameType::kAssocResponse;
    resp.src = bssid();
    resp.dst = requester;
    resp.bssid = bssid();
    resp.status = 0;
    resp.aid = aid;
    resp.size_bytes = wire::kMgmtFrameBytes;
    radio_.send(std::move(resp));
  });
  if (inserted && assoc_listener_) assoc_listener_(requester, true);
}

void AccessPoint::handle_ps_transition(ClientState& state, const Frame& frame) {
  const bool was_saving = state.power_save;
  state.power_save = frame.power_mgmt;
  if (!was_saving && state.power_save) {
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kPsmSleep,
                 .channel = static_cast<std::int16_t>(config_.channel),
                 .track = obs::track::ap(bssid().raw()), .id = frame.src.raw());
  }
  if (was_saving && !state.power_save) {
    flush_psm_queue(frame.src, state);
  }
}

void AccessPoint::handle_data(const Frame& frame) {
  auto it = clients_.find(frame.src);
  if (it == clients_.end()) return;  // not associated: ignored, client re-joins
  ClientState& state = it->second;
  state.last_heard = sim_.now();

  switch (frame.type) {
    case FrameType::kNullData:
      handle_ps_transition(state, frame);
      return;
    case FrameType::kPsPoll:
      // Standard PS-Poll: one buffered frame per poll, with more_data
      // signalling the rest. (Spider's own switch path uses a PSM-clear
      // NullData instead, which flushes everything at once.)
      if (!state.psm_queue.empty()) {
        wire::PacketPtr packet = std::move(state.psm_queue.front());
        state.psm_queue.pop_front();
        transmit_data(frame.src, std::move(packet), !state.psm_queue.empty());
      }
      return;
    case FrameType::kData:
      handle_ps_transition(state, frame);
      if (frame.packet && uplink_) uplink_(frame.packet, frame.src);
      return;
    default:
      return;
  }
}

void AccessPoint::flush_psm_queue(wire::MacAddress client, ClientState& state) {
  const std::size_t flushed = state.psm_queue.size();
  while (!state.psm_queue.empty()) {
    wire::PacketPtr packet = std::move(state.psm_queue.front());
    state.psm_queue.pop_front();
    transmit_data(client, std::move(packet), !state.psm_queue.empty());
  }
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kPsmWake,
               .channel = static_cast<std::int16_t>(config_.channel),
               .track = obs::track::ap(bssid().raw()), .id = client.raw(),
               .value = static_cast<double>(flushed));
}

bool AccessPoint::deliver_to_client(wire::MacAddress client, wire::PacketPtr packet) {
  if (!powered_) return false;
  auto it = clients_.find(client);
  if (it == clients_.end()) return false;
  ClientState& state = it->second;
  if (state.power_save) {
    if (state.psm_queue.size() >= config_.psm_buffer_frames) {
      ++psm_drops_;
      return true;  // buffered-and-dropped; still "associated"
    }
    state.psm_queue.push_back(std::move(packet));
    return true;
  }
  transmit_data(client, std::move(packet), false);
  return true;
}

void AccessPoint::transmit_data(wire::MacAddress client, wire::PacketPtr packet,
                                bool more_data) {
  Frame f = wire::make_data_frame(bssid(), client, bssid(), std::move(packet));
  f.more_data = more_data;
  radio_.send(std::move(f));
}

bool AccessPoint::is_associated(wire::MacAddress client) const {
  return clients_.contains(client);
}

std::size_t AccessPoint::psm_buffered(wire::MacAddress client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.psm_queue.size();
}

void AccessPoint::purge_inactive() {
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (sim_.now() - it->second.last_heard > config_.inactivity_timeout) {
      const auto mac = it->first;
      it = clients_.erase(it);
      if (assoc_listener_) assoc_listener_(mac, false);
    } else {
      ++it;
    }
  }
}

}  // namespace spider::mac
