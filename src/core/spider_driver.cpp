#include "core/spider_driver.hpp"

#include <cassert>

#include "obs/tracer.hpp"

namespace spider::core {

SpiderDriver::SpiderDriver(sim::Simulator& simulator, phy::Medium& medium,
                           std::uint64_t mac_base,
                           phy::Radio::PositionFn position, SpiderConfig config)
    : sim_(simulator),
      config_(std::move(config)),
      radio_(medium, wire::MacAddress(mac_base), std::move(position),
             config_.radio),
      scanner_(simulator, config_.scanner),
      mode_(config_.mode) {
  mode_.normalize();
  assert(!mode_.fractions.empty());

  radio_.set_receiver([this](const wire::Frame& f) { on_radio_frame(f); });
  radio_.set_rx_filter({{mac_base, mac_base + 1 + config_.num_interfaces},
                        mac::Scanner::kHeardTypes});
  scanner_.set_prober([this] { send_probe_request(); });

  vifs_.reserve(config_.num_interfaces);
  for (std::size_t i = 0; i < config_.num_interfaces; ++i) {
    vifs_.push_back(std::make_unique<VirtualInterface>(
        simulator, *this, i, wire::MacAddress(mac_base + 1 + i), config_));
  }
}

void SpiderDriver::start() {
  if (started_) return;
  started_ = true;
  scanner_.start();
  current_slot_ = 0;
  begin_slot(0);
}

void SpiderDriver::set_mode(OperationMode mode) {
  mode.normalize();
  assert(!mode.fractions.empty());
  slot_timer_.cancel();
  // Queued traffic for channels the new mode abandons will never drain.
  for (auto& [channel, queue] : channel_queues_) {
    if (!mode.includes(channel)) {
      queue_drops_ += queue.size();
      queue.clear();
    }
  }
  mode_ = std::move(mode);
  if (started_) {
    current_slot_ = 0;
    begin_slot(0);
  }
}

bool SpiderDriver::channel_active(wire::Channel channel) const {
  return !radio_.switching() && radio_.channel() == channel;
}

Time SpiderDriver::slot_duration(std::size_t slot_index) const {
  const double f = mode_.fractions[slot_index].second;
  const auto nominal = Time{static_cast<std::int64_t>(
      f * static_cast<double>(mode_.period.count()))};
  // The hardware reset eats into the slot so the full cycle stays ~D
  // (constraint (10) of the optimisation framework).
  const Time dwell = nominal - config_.radio.switch_latency;
  return std::max(dwell, msec(5));
}

void SpiderDriver::begin_slot(std::size_t slot_index) {
  current_slot_ = slot_index;
  const wire::Channel target = mode_.fractions[slot_index].first;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kSlotBegin,
               .aux = static_cast<std::uint8_t>(slot_index),
               .channel = static_cast<std::int16_t>(target),
               .track = obs::track::scheduler(),
               .value = to_seconds(slot_duration(slot_index)));
  switch_started_ = sim_.now();
  if (channel_active(target)) {
    on_channel_entered(/*record_latency=*/false);
  } else {
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kChannelSwitchStart,
                 .channel = static_cast<std::int16_t>(target),
                 .track = obs::track::scheduler());
    radio_.tune(target, [this] { on_channel_entered(/*record_latency=*/true); });
  }
}

void SpiderDriver::on_channel_entered(bool record_latency) {
  const wire::Channel channel = radio_.channel();

  // Wake every associated interface on this channel: a PSM-clear NullData
  // tells the AP to flush its power-save buffer and resume direct delivery.
  // (In PS-Poll mode the card stays in power-save and pulls frames via the
  // beacon TIM instead.)
  std::size_t woken = 0;
  if (config_.psm_retrieval == PsmRetrieval::kWakeNull) {
    for (auto& vif : vifs_) {
      if (vif->mlme().associated() && vif->channel() == channel) {
        send_ps_frame(*vif, /*power_save=*/false);
        ++woken;
      }
    }
  }
  if (record_latency) {
    // Latency sample: PSM drain + reset + wake frames (their airtime is
    // known, the frames were just queued).
    const Time wake_air =
        woken * phy::Medium::airtime(wire::kNullFrameBytes, config_.radio.phy_rate);
    const double latency_ms = to_millis(sim_.now() - switch_started_ + wake_air);
    switch_latency_.add(latency_ms);
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kChannelSwitchEnd,
                 .channel = static_cast<std::int16_t>(channel),
                 .track = obs::track::scheduler(), .value = latency_ms);
  }

  drain_queue(channel);

  if (!mode_.single_channel()) {
    slot_timer_.cancel();
    slot_timer_ = sim_.schedule(slot_duration(current_slot_), [this] {
      end_slot_and_switch((current_slot_ + 1) % mode_.fractions.size());
    });
  }
}

void SpiderDriver::end_slot_and_switch(std::size_t next_slot) {
  const wire::Channel old_channel = radio_.channel();
  // Ask every associated AP on the departing channel to buffer for us.
  for (auto& vif : vifs_) {
    if (vif->mlme().associated() && vif->channel() == old_channel) {
      send_ps_frame(*vif, /*power_save=*/true);
    }
  }
  ++switch_count_;
  begin_slot(next_slot);
}

void SpiderDriver::send_ps_frame(VirtualInterface& vif, bool power_save) {
  wire::Frame f;
  f.type = wire::FrameType::kNullData;
  f.src = vif.mac();
  f.dst = vif.bssid();
  f.bssid = vif.bssid();
  f.power_mgmt = power_save;
  f.size_bytes = wire::kNullFrameBytes;
  radio_.send(std::move(f));
}

bool SpiderDriver::send_mgmt(wire::Frame frame, wire::Channel channel) {
  if (!channel_active(channel)) return false;
  radio_.send(std::move(frame));
  return true;
}

void SpiderDriver::send_data(VirtualInterface& vif, wire::PacketPtr packet) {
  const wire::Channel channel = vif.channel();
  if (vif.bssid().is_null() || !mode_.includes(channel)) {
    ++queue_drops_;
    return;
  }
  if (channel_active(channel)) {
    wire::Frame f = wire::make_data_frame(vif.mac(), vif.bssid(), vif.bssid(),
                                          std::move(packet));
    // In PS-Poll mode every uplink frame re-asserts power-save so the AP
    // keeps buffering for us.
    f.power_mgmt = config_.psm_retrieval == PsmRetrieval::kPsPoll;
    radio_.send(std::move(f));
    return;
  }
  auto& queue = channel_queues_[channel];
  if (queue.size() >= config_.channel_queue_limit) {
    ++queue_drops_;
    return;
  }
  queue.push_back(QueuedPacket{vif.index(), std::move(packet)});
}

void SpiderDriver::drain_queue(wire::Channel channel) {
  auto it = channel_queues_.find(channel);
  if (it == channel_queues_.end()) return;
  auto& queue = it->second;
  while (!queue.empty()) {
    QueuedPacket entry = std::move(queue.front());
    queue.pop_front();
    VirtualInterface& vif = *vifs_[entry.vif_index];
    if (vif.bssid().is_null() || vif.channel() != channel) {
      ++queue_drops_;  // association died while the packet waited
      continue;
    }
    wire::Frame f = wire::make_data_frame(vif.mac(), vif.bssid(), vif.bssid(),
                                          std::move(entry.packet));
    f.power_mgmt = config_.psm_retrieval == PsmRetrieval::kPsPoll;
    radio_.send(std::move(f));
  }
}

void SpiderDriver::on_radio_frame(const wire::Frame& frame) {
  scanner_.on_frame(frame);
  if (frame.dst.is_broadcast()) {
    // PS-Poll mode: the beacon TIM tells us which interfaces have traffic
    // waiting; pull it one PS-Poll at a time.
    if (config_.psm_retrieval == PsmRetrieval::kPsPoll &&
        frame.type == wire::FrameType::kBeacon && !frame.tim_aids.empty()) {
      for (auto& vif : vifs_) {
        if (!vif->mlme().associated() || vif->bssid() != frame.bssid) continue;
        for (std::uint16_t aid : frame.tim_aids) {
          if (aid == vif->mlme().aid()) {
            send_ps_poll(*vif);
            break;
          }
        }
      }
    }
    return;
  }
  for (auto& vif : vifs_) {
    if (frame.dst == vif->mac()) {
      // more_data: the AP holds further buffered frames — keep pulling.
      if (config_.psm_retrieval == PsmRetrieval::kPsPoll && frame.more_data &&
          frame.type == wire::FrameType::kData &&
          channel_active(vif->channel())) {
        send_ps_poll(*vif);
      }
      vif->on_frame(frame);
      return;
    }
  }
}

void SpiderDriver::send_ps_poll(VirtualInterface& vif) {
  wire::Frame poll;
  poll.type = wire::FrameType::kPsPoll;
  poll.src = vif.mac();
  poll.dst = vif.bssid();
  poll.bssid = vif.bssid();
  poll.size_bytes = wire::kPsPollFrameBytes;
  radio_.send(std::move(poll));
}

void SpiderDriver::send_probe_request() {
  if (radio_.switching()) return;
  wire::Frame probe;
  probe.type = wire::FrameType::kProbeRequest;
  probe.src = radio_.mac();
  probe.dst = wire::MacAddress::broadcast();
  probe.size_bytes = wire::kMgmtFrameBytes;
  radio_.send(std::move(probe));
}

}  // namespace spider::core
