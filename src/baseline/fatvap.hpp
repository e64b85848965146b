#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/driver_base.hpp"
#include "core/virtual_iface.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "util/stats.hpp"

namespace spider::base {

/// FatVAP-style scheduling parameters.
struct FatVapConfig {
  /// Scheduling period (FatVAP keeps it under ~100 ms x APs; we default to
  /// the same D as Spider's experiments for comparability).
  Time period = msec(400);
  /// Channels the driver may scan/join (candidate set).
  std::vector<wire::Channel> channels = {1, 6, 11};
  /// EWMA factor for the measured per-AP goodput that weights each slot
  /// (FatVAP's f_i = R_i/W idea).
  double goodput_alpha = 0.3;
  /// Minimum slot share so a starved AP can still make progress.
  double min_share = 0.10;
  /// Dwell per channel while no AP is active (scan rotation).
  Time scan_dwell = msec(150);
  /// Insert a background scan slot every N data slots even while APs are
  /// active, so new APs on other channels can still be discovered.
  std::size_t scan_every = 8;
};

/// A FatVAP/Juggler-like driver (the prior work Spider argues against for
/// mobile use): time is sliced across *APs*, not channels. Each active
/// interface owns the card exclusively during its slot — even against a
/// sibling interface on the same channel — and sleeping interfaces rely on
/// AP-side PSM buffering. Joins therefore compete with data slots, which
/// is precisely the pathology §2 quantifies for mobile clients.
///
/// Scheduling discipline aside, the stack is identical to Spider's
/// (same MLME/DHCP/prober, same LinkManager policy), so benchmark deltas
/// isolate Design Choice 1 (channel- vs AP-based scheduling).
class FatVapDriver final : public core::DriverBase {
 public:
  FatVapDriver(sim::Simulator& simulator, phy::Medium& medium,
               std::uint64_t mac_base, phy::Radio::PositionFn position,
               core::SpiderConfig stack, FatVapConfig config);

  void start();

  // DriverBase surface.
  sim::Simulator& simulator() override { return sim_; }
  const core::SpiderConfig& config() const override { return stack_; }
  const core::OperationMode& mode() const override { return mode_; }
  mac::Scanner& scanner() override { return scanner_; }
  core::VirtualInterface& iface(std::size_t i) override { return *vifs_[i]; }
  std::size_t num_interfaces() const override { return vifs_.size(); }
  bool send_mgmt(wire::Frame frame, wire::Channel channel) override;
  void send_data(core::VirtualInterface& vif, wire::PacketPtr packet) override;

  phy::Radio& radio() { return radio_; }
  std::uint64_t slot_cycles() const { return cycles_; }
  std::uint64_t queue_drops() const { return queue_drops_; }

 private:
  static constexpr std::size_t kNoOwner = static_cast<std::size_t>(-1);

  void next_slot();
  void enter_vif_slot(std::size_t vif_index, Time dwell);
  void enter_scan_slot(Time dwell);
  std::vector<std::size_t> active_vifs() const;
  double share_of(std::size_t vif_index,
                  const std::vector<std::size_t>& active) const;
  void update_goodput();
  void drain_queue(std::size_t vif_index);
  void on_radio_frame(const wire::Frame& frame);
  void send_ps_frame(core::VirtualInterface& vif, bool power_save);

  sim::Simulator& sim_;
  core::SpiderConfig stack_;
  FatVapConfig config_;
  phy::Radio radio_;
  mac::Scanner scanner_;
  core::OperationMode mode_;
  std::vector<std::unique_ptr<core::VirtualInterface>> vifs_;
  std::vector<std::deque<wire::PacketPtr>> queues_;       // per interface
  std::vector<double> goodput_ewma_;                      // bytes per slot
  std::vector<std::uint64_t> rx_bytes_last_;

  bool started_ = false;
  std::size_t slot_owner_ = kNoOwner;
  std::size_t slot_cursor_ = 0;  ///< rotates through active interfaces
  std::size_t scan_cursor_ = 0;  ///< rotates through channels when idle
  std::uint64_t cycles_ = 0;
  std::uint64_t queue_drops_ = 0;
  sim::EventHandle slot_timer_;
};

}  // namespace spider::base
