#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "wire/frame.hpp"

namespace spider::mac {

/// Configuration of a single access point's MAC.
struct ApConfig {
  std::string ssid = "open-ap";
  wire::Channel channel = 6;
  Time beacon_interval = msec(100);
  /// Per-beacon timing jitter (uniform +/- this). Real beacons drift with
  /// medium contention and TSF error; without jitter a deterministic
  /// simulation can phase-lock beacons against a client's channel
  /// schedule so that a dwell never contains one.
  Time beacon_jitter = msec(6);
  /// Management processing latency (probe/auth/assoc responses). Real APs
  /// answer within a few milliseconds; the slow part of a join is DHCP.
  Time mgmt_delay_min = msec(1);
  Time mgmt_delay_max = msec(8);
  /// Per-client power-save buffer (frames). Overflow drops the newest
  /// frame, which TCP perceives as loss.
  std::size_t psm_buffer_frames = 120;
  /// Clients silent for this long are deauthenticated and their PSM
  /// buffers reclaimed (mobile clients usually just drive away).
  Time inactivity_timeout = sec(30);
  /// Association table capacity; further requests are denied with a
  /// status code (0 disables the limit). Consumer APs of the era held a
  /// few dozen stations.
  std::size_t max_clients = 32;
};

/// AP-side 802.11 MAC: beaconing, the scan/auth/assoc responder side,
/// the association table, and per-client power-save buffering.
///
/// The AP is deliberately unaware of IP: packets from associated clients
/// are handed to an uplink callback, and the network layer above pushes
/// downlink packets back with an explicit destination client. This keeps
/// the MAC reusable under both the AP's own DHCP/gateway stack and tests.
class AccessPoint {
 public:
  /// (packet, source client) — invoked for every uplink data frame.
  using UplinkFn = std::function<void(wire::PacketPtr, wire::MacAddress)>;
  using AssocListener = std::function<void(wire::MacAddress, bool associated)>;

  AccessPoint(sim::Simulator& simulator, phy::Medium& medium,
              wire::MacAddress bssid, Position position, ApConfig config,
              Rng rng);
  /// The self-rescheduling beacon chain captures `this`; an AP torn down
  /// mid-run (fault tests) must cancel it or the event fires on a corpse.
  ~AccessPoint() { beacon_event_.cancel(); }

  void start();  ///< begins beaconing

  // --- fault-injection hooks (src/fault) ------------------------------
  /// Power loss: beaconing stops, the association table and all PSM
  /// buffers are wiped (no deauth goes out — the clients just stop
  /// hearing us), and every received frame is ignored.
  void power_off();
  /// Power restored: fresh boot, beaconing resumes at a random phase.
  /// No-op while already powered.
  void power_on();
  bool powered() const { return powered_; }
  /// While silenced the AP skips its beacons but still answers probes,
  /// handshakes and data (a real firmware failure mode: passive scanners
  /// go blind, existing associations keep working).
  void set_beacon_silence(bool silenced) { beacon_silenced_ = silenced; }
  /// Discards every PSM-buffered frame (firmware buffer reclaim); the
  /// drops are counted in `psm_drops()`. Returns frames discarded.
  std::size_t purge_psm_buffers();

  const ApConfig& config() const { return config_; }
  wire::Bssid bssid() const { return radio_.mac(); }
  phy::Radio& radio() { return radio_; }
  wire::Channel channel() const { return config_.channel; }
  Position position() const { return position_; }

  void set_uplink(UplinkFn uplink) { uplink_ = std::move(uplink); }
  void set_assoc_listener(AssocListener l) { assoc_listener_ = std::move(l); }

  /// Downlink entry point used by the network layer. Respects the client's
  /// power-save state; returns false if the client is not associated.
  bool deliver_to_client(wire::MacAddress client, wire::PacketPtr packet);

  bool is_associated(wire::MacAddress client) const;
  std::size_t associated_count() const { return clients_.size(); }
  std::size_t psm_buffered(wire::MacAddress client) const;

  std::uint64_t assoc_grants() const { return assoc_grants_; }
  std::uint64_t assoc_denials() const { return assoc_denials_; }
  std::uint64_t psm_drops() const { return psm_drops_; }

 private:
  struct ClientState {
    std::uint16_t aid = 0;
    bool power_save = false;
    Time last_heard{0};
    std::deque<wire::PacketPtr> psm_queue;
  };

  void on_frame(const wire::Frame& frame);
  void handle_probe(const wire::Frame& frame);
  void handle_auth(const wire::Frame& frame);
  void handle_assoc(const wire::Frame& frame);
  void handle_data(const wire::Frame& frame);
  void handle_ps_transition(ClientState& state, const wire::Frame& frame);
  void flush_psm_queue(wire::MacAddress client, ClientState& state);
  void send_beacon();
  void schedule_next_beacon();
  void purge_inactive();
  void transmit_data(wire::MacAddress client, wire::PacketPtr packet,
                     bool more_data);
  Time mgmt_delay();

  sim::Simulator& sim_;
  ApConfig config_;
  Position position_;
  Rng rng_;
  phy::Radio radio_;
  UplinkFn uplink_;
  AssocListener assoc_listener_;
  std::unordered_map<wire::MacAddress, ClientState> clients_;
  bool powered_ = true;
  bool beacon_silenced_ = false;
  std::uint16_t next_aid_ = 1;
  std::uint64_t assoc_grants_ = 0;
  std::uint64_t assoc_denials_ = 0;
  std::uint64_t psm_drops_ = 0;
  sim::EventHandle beacon_event_;
  std::optional<sim::PeriodicTimer> purge_timer_;
};

}  // namespace spider::mac
