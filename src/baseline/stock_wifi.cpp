#include "baseline/stock_wifi.hpp"

namespace spider::base {

StockWifiDriver::StockWifiDriver(sim::Simulator& simulator, phy::Medium& medium,
                                 std::uint64_t mac_base,
                                 phy::Radio::PositionFn position,
                                 StockConfig config, wire::Ipv4 ping_target)
    : sim_(simulator),
      config_(std::move(config)),
      radio_(medium, wire::MacAddress(mac_base), std::move(position),
             config_.stack.radio),
      scanner_(simulator, config_.stack.scanner),
      mode_(core::OperationMode::single(
          config_.lock_channel.value_or(config_.scan_channels.front()))),
      ping_target_(ping_target) {
  if (config_.lock_channel) {
    config_.scan_channels = {*config_.lock_channel};
  }
  radio_.set_receiver([this](const wire::Frame& f) { on_radio_frame(f); });
  radio_.set_rx_filter({{mac_base, mac_base + 2}, mac::Scanner::kHeardTypes});
  vif_ = std::make_unique<core::VirtualInterface>(
      simulator, *this, 0, wire::MacAddress(mac_base + 1), config_.stack);

  vif_->mlme().set_callbacks({
      .on_associated =
          [this](std::uint16_t) {
            if (phase_ != Phase::kJoining) return;
            record().assoc_delay = sim_.now() - record().started;
            vif_->set_link_state(core::LinkState::kDhcp);
            vif_->dhcp().start();
          },
      .on_failed = [this](mac::JoinPhase) {
        fail_join(core::JoinOutcome::kAssocFailed);
      },
      .on_link_lost = [this] { on_link_dead(); },
  });
  vif_->dhcp().set_callbacks({
      .on_bound =
          [this](const net::Lease& lease) {
            if (phase_ != Phase::kJoining) return;
            record().dhcp_delay = sim_.now() - record().started;
            vif_->set_lease(lease);
            vif_->set_link_state(core::LinkState::kUp);
            record().finished = true;
            record().outcome = core::JoinOutcome::kEndToEnd;
            record().e2e_delay = record().dhcp_delay;
            phase_ = Phase::kUp;
            // Stock stacks have no join-time connectivity test; the prober
            // only watches for link death afterwards.
            const wire::Ipv4 target =
                ping_target_.is_null() ? lease.gateway : ping_target_;
            vif_->prober().start(lease.ip, target);
            if (callbacks_.on_link_up) callbacks_.on_link_up(*vif_);
          },
      .on_failed = [this] { fail_join(core::JoinOutcome::kAssocOnly); },
  });
  vif_->prober().set_callbacks({
      .on_dead = [this] { on_link_dead(); },
  });
}

void StockWifiDriver::start() { begin_scan(); }

void StockWifiDriver::begin_scan() {
  phase_ = Phase::kScanning;
  ++scans_;
  scan_step(0);
}

void StockWifiDriver::scan_step(std::size_t scan_index) {
  if (scan_index >= config_.scan_channels.size()) {
    finish_scan();
    return;
  }
  radio_.tune(config_.scan_channels[scan_index], [this, scan_index] {
    // Active scan: one broadcast probe, then listen for the dwell.
    wire::Frame probe;
    probe.type = wire::FrameType::kProbeRequest;
    probe.src = radio_.mac();
    probe.dst = wire::MacAddress::broadcast();
    probe.size_bytes = wire::kMgmtFrameBytes;
    radio_.send(std::move(probe));
    timer_ = sim_.schedule(config_.scan_dwell,
                           [this, scan_index] { scan_step(scan_index + 1); });
  });
}

void StockWifiDriver::finish_scan() {
  // Strongest signal wins — stock association policy.
  const auto seen = scanner_.current();
  if (seen.empty()) {
    phase_ = Phase::kIdle;
    timer_ = sim_.schedule(config_.rescan_backoff, [this] { begin_scan(); });
    return;
  }
  begin_join(seen.front());
}

void StockWifiDriver::begin_join(const mac::ApObservation& obs) {
  phase_ = Phase::kJoining;
  core::JoinRecord rec;
  rec.bssid = obs.bssid;
  rec.channel = obs.channel;
  rec.started = sim_.now();
  join_log_.push_back(rec);

  mode_ = core::OperationMode::single(obs.channel);
  radio_.tune(obs.channel, [this, obs] {
    vif_->set_link_state(core::LinkState::kAssociating);
    vif_->mlme().start_join(obs.bssid, obs.channel);
  });
}

void StockWifiDriver::fail_join(core::JoinOutcome outcome) {
  if (phase_ != Phase::kJoining) return;
  record().finished = true;
  record().outcome = outcome;
  vif_->dhcp().abort();
  vif_->mlme().abort();
  vif_->set_lease(std::nullopt);
  vif_->set_link_state(core::LinkState::kIdle);
  phase_ = Phase::kIdle;
  timer_ = sim_.schedule(config_.rescan_backoff, [this] { begin_scan(); });
}

void StockWifiDriver::on_link_dead() {
  if (phase_ != Phase::kUp) return;
  if (callbacks_.on_link_down) callbacks_.on_link_down(*vif_);
  vif_->prober().stop();
  vif_->dhcp().abort();
  vif_->mlme().disassociate();
  vif_->set_lease(std::nullopt);
  vif_->set_link_state(core::LinkState::kIdle);
  phase_ = Phase::kIdle;
  timer_ = sim_.schedule(config_.rescan_backoff, [this] { begin_scan(); });
}

bool StockWifiDriver::send_mgmt(wire::Frame frame, wire::Channel channel) {
  if (radio_.switching() || radio_.channel() != channel) return false;
  radio_.send(std::move(frame));
  return true;
}

void StockWifiDriver::send_data(core::VirtualInterface& vif,
                                wire::PacketPtr packet) {
  if (vif.bssid().is_null() || radio_.switching() ||
      radio_.channel() != vif.channel()) {
    return;  // no multi-channel queues in a stock driver: traffic is lost
  }
  radio_.send(wire::make_data_frame(vif.mac(), vif.bssid(), vif.bssid(),
                                    std::move(packet)));
}

void StockWifiDriver::on_radio_frame(const wire::Frame& frame) {
  scanner_.on_frame(frame);
  if (frame.dst == vif_->mac()) vif_->on_frame(frame);
}

}  // namespace spider::base
