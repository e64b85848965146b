#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"
#include "wire/frame.hpp"

namespace spider::phy {

/// Hardware parameters of a Wi-Fi card.
struct RadioConfig {
  BitRate phy_rate = kWirelessRate;  ///< 11 Mbps, as in the paper
  /// Hardware-reset latency applied on every channel change. Table 1
  /// measures the full switch (PSM frames + reset) at ~5 ms with the reset
  /// as the dominant term.
  Time switch_latency = msec(4);
  /// Whether the position callback is time-varying. The medium's spatial
  /// grid (DESIGN.md §10) re-samples mobile radios whenever sim time
  /// advances but buckets static radios exactly once at attach/retune —
  /// this is what keeps thousands of stationary APs free of per-frame
  /// position sampling. The default is the always-correct conservative
  /// choice; only declare a radio static when its position callback is a
  /// constant (APs do), or grid deliveries will miss it after it moves.
  bool mobile = true;
  /// Optional ceiling on how fast the position callback can move this
  /// radio, in metres per second of sim time (0 = no ceiling known). When
  /// set, the medium's mobile sweep amortises rebucketing (DESIGN.md §10):
  /// a radio mid-cell cannot reach a cell boundary before
  /// distance-to-boundary / max_speed_mps elapses, so its position is not
  /// re-sampled until that horizon — without changing delivered sets,
  /// counters, or RNG draws. The value must be a true bound over the whole
  /// run (every MobilityModel moves at constant path speed with no
  /// teleports, so speed_mps() qualifies); a callback that outruns its
  /// declared ceiling breaks grid correctness. Leave 0 when unsure.
  double max_speed_mps = 0.0;
};

/// A single physical 802.11 card.
///
/// The radio is tuned to exactly one channel at a time. Transmissions are
/// serialised through a FIFO: a frame occupies the air for its airtime
/// before the next may start. A `tune()` request first drains frames that
/// are already queued (Spider's switch sequence queues PSM frames to each
/// associated AP immediately before retuning, and those must reach the old
/// channel), then performs the hardware reset, during which the card
/// neither transmits nor receives. Virtualisation (multiple BSS on one
/// card) lives above this class, in the MAC and in Spider's scheduler.
class Radio {
 public:
  using PositionFn = std::function<Position()>;
  using ReceiveFn = std::function<void(const wire::Frame&)>;

  Radio(Medium& medium, wire::MacAddress mac, PositionFn position,
        RadioConfig config = {});
  ~Radio();
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  wire::MacAddress mac() const { return mac_; }
  wire::Channel channel() const { return channel_; }
  Position position() const { return position_(); }
  const RadioConfig& config() const { return config_; }

  /// True when the card can hear frames on its channel.
  bool listening() const { return !resetting_; }
  /// True from the tune() call until the retune completes.
  bool switching() const { return resetting_ || pending_tune_.has_value(); }

  /// Retunes the card. Already-queued frames are flushed first; then the
  /// card is deaf for `switch_latency`; `done` runs once it is usable on
  /// the new channel. Retuning to the current channel still pays the
  /// hardware-reset cost (matching the driver's behaviour). A second tune()
  /// while one is pending supersedes it (the previous `done` is dropped).
  void tune(wire::Channel channel, std::function<void()> done = nullptr);

  /// Enqueues a frame for transmission on the current channel. Frames
  /// queued after a tune() request are dropped — callers must hold traffic
  /// until the retune completes.
  void send(wire::Frame frame);

  /// Upcall for every frame heard on the tuned channel that passes the
  /// receive filter below.
  void set_receiver(ReceiveFn receiver) { receiver_ = std::move(receiver); }

  /// Declares the receive filter, as a NIC programs its address filter:
  /// the block of unicast destinations this card answers for (a
  /// virtualised driver claims its own MAC and every interface MAC) and
  /// the frame types it overhears when addressed elsewhere. The medium
  /// applies link-layer ARQ only to frames in the block, and schedules no
  /// delivery for a frame the filter rejects. Default: only the card's own
  /// MAC, [mac, mac + 1), and every frame type overheard.
  void set_rx_filter(wire::RxFilter filter) { rx_filter_ = filter; }
  const wire::RxFilter& rx_filter() const { return rx_filter_; }

  /// Called by the medium on delivery.
  void deliver(const wire::Frame& frame);

  std::uint64_t switches_performed() const { return switches_; }
  std::uint64_t frames_dropped_switching() const { return dropped_switching_; }

  // --- energy accounting inputs (see phy/energy.hpp) ------------------
  /// Cumulative airtime this card spent transmitting.
  Time tx_airtime() const { return tx_airtime_; }
  /// Cumulative time spent in hardware resets (tuning).
  Time switch_airtime() const { return switch_airtime_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }

 private:
  friend class Medium;
  friend struct MediumTestPeer;  ///< test-only invariant-corruption backdoor

  struct PendingTune {
    wire::Channel channel;
    std::function<void()> done;
  };

  void pump_tx();
  void begin_reset();

  Medium& medium_;
  /// Index into the medium's generation-stamped slot registry; assigned by
  /// Medium::attach and used for O(1) liveness checks on in-flight frames.
  std::uint32_t medium_slot_ = 0;
  wire::MacAddress mac_;
  PositionFn position_;
  RadioConfig config_;
  ReceiveFn receiver_;
  wire::RxFilter rx_filter_{{mac_.raw(), mac_.raw() + 1}};

  wire::Channel channel_ = 1;
  bool resetting_ = false;
  std::optional<PendingTune> pending_tune_;
  std::uint64_t switches_ = 0;
  std::uint64_t dropped_switching_ = 0;

  Time tx_airtime_{0};
  Time switch_airtime_{0};
  std::uint64_t tx_bytes_ = 0;

  std::deque<wire::Frame> tx_queue_;
  bool tx_busy_ = false;
  sim::EventHandle tx_event_;
  sim::EventHandle switch_event_;
};

}  // namespace spider::phy
