#include "baseline/fatvap.hpp"

#include <algorithm>

namespace spider::base {

FatVapDriver::FatVapDriver(sim::Simulator& simulator, phy::Medium& medium,
                           std::uint64_t mac_base,
                           phy::Radio::PositionFn position,
                           core::SpiderConfig stack, FatVapConfig config)
    : sim_(simulator),
      stack_(std::move(stack)),
      config_(std::move(config)),
      radio_(medium, wire::MacAddress(mac_base), std::move(position),
             stack_.radio),
      scanner_(simulator, stack_.scanner),
      mode_(core::OperationMode::equal_split(config_.channels, config_.period)) {
  radio_.set_receiver([this](const wire::Frame& f) { on_radio_frame(f); });
  radio_.set_rx_filter({{mac_base, mac_base + 1 + stack_.num_interfaces},
                        mac::Scanner::kHeardTypes});
  scanner_.set_prober([this] {
    if (radio_.switching()) return;
    wire::Frame probe;
    probe.type = wire::FrameType::kProbeRequest;
    probe.src = radio_.mac();
    probe.dst = wire::MacAddress::broadcast();
    probe.size_bytes = wire::kMgmtFrameBytes;
    radio_.send(std::move(probe));
  });

  vifs_.reserve(stack_.num_interfaces);
  queues_.resize(stack_.num_interfaces);
  goodput_ewma_.assign(stack_.num_interfaces, 0.0);
  rx_bytes_last_.assign(stack_.num_interfaces, 0);
  for (std::size_t i = 0; i < stack_.num_interfaces; ++i) {
    vifs_.push_back(std::make_unique<core::VirtualInterface>(
        simulator, *this, i, wire::MacAddress(mac_base + 1 + i), stack_));
  }
}

void FatVapDriver::start() {
  if (started_) return;
  started_ = true;
  scanner_.start();
  next_slot();
}

std::vector<std::size_t> FatVapDriver::active_vifs() const {
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < vifs_.size(); ++i) {
    if (!vifs_[i]->idle()) active.push_back(i);
  }
  return active;
}

double FatVapDriver::share_of(std::size_t vif_index,
                              const std::vector<std::size_t>& active) const {
  double total = 0.0;
  for (std::size_t i : active) total += std::max(1.0, goodput_ewma_[i]);
  const double raw = std::max(1.0, goodput_ewma_[vif_index]) / total;
  return std::max(config_.min_share, raw);
}

void FatVapDriver::update_goodput() {
  for (std::size_t i = 0; i < vifs_.size(); ++i) {
    const std::uint64_t now_bytes = vifs_[i]->rx_bytes();
    const double delta = static_cast<double>(now_bytes - rx_bytes_last_[i]);
    rx_bytes_last_[i] = now_bytes;
    goodput_ewma_[i] = config_.goodput_alpha * delta +
                       (1.0 - config_.goodput_alpha) * goodput_ewma_[i];
  }
}

void FatVapDriver::next_slot() {
  // Close the departing slot: its owner (if associated) goes to power-save
  // so the AP buffers for it. Same-channel siblings are *also* asleep —
  // that is the per-AP reservation Spider's Design Choice 1 removes.
  if (slot_owner_ != kNoOwner && vifs_[slot_owner_]->mlme().associated()) {
    send_ps_frame(*vifs_[slot_owner_], /*power_save=*/true);
  }
  slot_owner_ = kNoOwner;
  update_goodput();

  const auto active = active_vifs();
  if (active.empty() ||
      (config_.scan_every > 0 && cycles_ > 0 &&
       cycles_ % config_.scan_every == 0 &&
       active.size() < vifs_.size())) {
    // Either nothing is joined, or it is time for a background scan slot
    // (only while spare interfaces could still use new APs).
    ++cycles_;
    enter_scan_slot(config_.scan_dwell);
    return;
  }
  ++cycles_;
  slot_cursor_ = (slot_cursor_ + 1) % active.size();
  const std::size_t owner = active[slot_cursor_];
  const double share = share_of(owner, active);
  const Time dwell = std::max(
      msec(5), Time{static_cast<std::int64_t>(
                   share * static_cast<double>(config_.period.count()))});
  enter_vif_slot(owner, dwell);
}

void FatVapDriver::enter_vif_slot(std::size_t vif_index, Time dwell) {
  core::VirtualInterface& vif = *vifs_[vif_index];
  const wire::Channel channel = vif.channel() != 0
                                    ? vif.channel()
                                    : config_.channels[scan_cursor_];
  auto arrived = [this, vif_index, dwell] {
    slot_owner_ = vif_index;
    core::VirtualInterface& owner = *vifs_[vif_index];
    if (owner.mlme().associated()) {
      send_ps_frame(owner, /*power_save=*/false);  // wake: flush AP buffer
    }
    drain_queue(vif_index);
    slot_timer_ = sim_.schedule(dwell, [this] { next_slot(); });
  };
  if (!radio_.switching() && radio_.channel() == channel) {
    arrived();
  } else {
    radio_.tune(channel, arrived);
  }
}

void FatVapDriver::enter_scan_slot(Time dwell) {
  scan_cursor_ = (scan_cursor_ + 1) % config_.channels.size();
  radio_.tune(config_.channels[scan_cursor_], [this, dwell] {
    slot_owner_ = kNoOwner;
    slot_timer_ = sim_.schedule(dwell, [this] { next_slot(); });
  });
}

void FatVapDriver::send_ps_frame(core::VirtualInterface& vif, bool power_save) {
  wire::Frame f;
  f.type = wire::FrameType::kNullData;
  f.src = vif.mac();
  f.dst = vif.bssid();
  f.bssid = vif.bssid();
  f.power_mgmt = power_save;
  f.size_bytes = wire::kNullFrameBytes;
  radio_.send(std::move(f));
}

bool FatVapDriver::send_mgmt(wire::Frame frame, wire::Channel channel) {
  if (radio_.switching() || radio_.channel() != channel) return false;
  // Per-AP reservation: only the slot owner may talk, even to a
  // same-channel AP. (The scan slot, with no owner, is open.)
  if (slot_owner_ != kNoOwner && frame.src != vifs_[slot_owner_]->mac()) {
    return false;
  }
  radio_.send(std::move(frame));
  return true;
}

void FatVapDriver::send_data(core::VirtualInterface& vif,
                             wire::PacketPtr packet) {
  if (vif.bssid().is_null()) {
    ++queue_drops_;
    return;
  }
  const bool owns_air = slot_owner_ == vif.index() && !radio_.switching() &&
                        radio_.channel() == vif.channel();
  if (owns_air) {
    radio_.send(wire::make_data_frame(vif.mac(), vif.bssid(), vif.bssid(),
                                      std::move(packet)));
    return;
  }
  auto& queue = queues_[vif.index()];
  if (queue.size() >= stack_.channel_queue_limit) {
    ++queue_drops_;
    return;
  }
  queue.push_back(std::move(packet));
}

void FatVapDriver::drain_queue(std::size_t vif_index) {
  core::VirtualInterface& vif = *vifs_[vif_index];
  auto& queue = queues_[vif_index];
  while (!queue.empty()) {
    wire::PacketPtr packet = std::move(queue.front());
    queue.pop_front();
    if (vif.bssid().is_null()) {
      ++queue_drops_;
      continue;
    }
    radio_.send(wire::make_data_frame(vif.mac(), vif.bssid(), vif.bssid(),
                                      std::move(packet)));
  }
}

void FatVapDriver::on_radio_frame(const wire::Frame& frame) {
  scanner_.on_frame(frame);
  if (frame.dst.is_broadcast()) return;
  for (auto& vif : vifs_) {
    if (frame.dst == vif->mac()) {
      vif->on_frame(frame);
      return;
    }
  }
}

}  // namespace spider::base
