#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"
#include "util/time.hpp"
#include "wire/frame.hpp"

namespace spider::mac {

/// Which phase of the join pipeline an attempt died in. Spider's AP
/// selection utility weighs APs by how far previous joins progressed
/// (zero for association failures, va < vb < vc beyond — see §3.1).
enum class JoinPhase { kAssociation, kDhcp, kEndToEnd };

/// Client-side association state machine parameters.
struct MlmeConfig {
  /// Per-message response timeout ("link-layer timeout" in the paper;
  /// default 1 s, reduced to 100 ms in the mobile experiments). This is a
  /// timer per message of the multi-step handshake, not for the whole join.
  Time ll_timeout = sec(1);
  /// Retransmissions per handshake message before the join is abandoned.
  int max_retries = 5;
  /// Poll interval used while the radio is parked on another channel and
  /// the pending handshake message cannot be transmitted.
  Time offchannel_poll = msec(20);
};

/// Client-side 802.11 MLME for one virtual interface: drives the
/// Auth -> AuthResp -> Assoc -> AssocResp four-way handshake with
/// per-message timeouts and retries.
///
/// The MLME does not own the radio. It emits frames through a `SendFn`
/// supplied by the driver, which returns false when the card is currently
/// parked on a different channel; in that case the message waits (polling)
/// without consuming a retry, exactly like a queued frame in the real
/// driver. Received frames are fed in by the owner after address filtering.
class ClientMlme {
 public:
  using SendFn = std::function<bool(wire::Frame)>;

  struct Callbacks {
    std::function<void(std::uint16_t aid)> on_associated;
    /// Join abandoned (retries exhausted in the given phase).
    std::function<void(JoinPhase)> on_failed;
    /// Association lost (deauth/disassoc from the AP).
    std::function<void()> on_link_lost;
  };

  enum class State { kIdle, kAuthenticating, kAssociating, kAssociated };

  ClientMlme(sim::Simulator& simulator, wire::MacAddress self, MlmeConfig config);
  ~ClientMlme();
  ClientMlme(const ClientMlme&) = delete;
  ClientMlme& operator=(const ClientMlme&) = delete;

  void set_send(SendFn send) { send_ = std::move(send); }
  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }
  /// Flight-recorder lane for this MLME's events (obs::track::client of the
  /// owning interface). Zero leaves events on the anonymous track.
  void set_trace_track(std::uint32_t track) { trace_track_ = track; }
  void set_config(const MlmeConfig& config) { config_ = config; }
  const MlmeConfig& config() const { return config_; }

  /// Starts a join to the given BSS. Any ongoing attempt is aborted first.
  void start_join(wire::Bssid bssid, wire::Channel channel);

  /// Aborts an in-progress join or tears down an association (silently;
  /// use `disassociate()` to notify the AP).
  void abort();

  /// Sends a Disassoc frame (best effort) and returns to idle.
  void disassociate();

  /// Owner feeds frames addressed to this interface (dst == self).
  void on_frame(const wire::Frame& frame);

  State state() const { return state_; }
  bool associated() const { return state_ == State::kAssociated; }
  wire::Bssid bssid() const { return bssid_; }
  wire::Channel channel() const { return channel_; }
  wire::MacAddress self() const { return self_; }
  std::uint16_t aid() const { return aid_; }

 private:
  void send_current_message();
  void arm_timeout();
  void fail(JoinPhase phase);
  wire::Frame make_mgmt(wire::FrameType type) const;

  sim::Simulator& sim_;
  wire::MacAddress self_;
  MlmeConfig config_;
  SendFn send_;
  Callbacks callbacks_;

  State state_ = State::kIdle;
  wire::Bssid bssid_;
  wire::Channel channel_ = 0;
  std::uint32_t trace_track_ = 0;
  std::uint16_t aid_ = 0;
  int retries_left_ = 0;
  sim::EventHandle timer_;
};

const char* to_string(ClientMlme::State s);
const char* to_string(JoinPhase p);

}  // namespace spider::mac
