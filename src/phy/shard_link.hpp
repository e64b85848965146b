#pragma once

#include <cstdint>
#include <functional>

#include "util/time.hpp"
#include "util/units.hpp"
#include "wire/frame.hpp"

namespace spider::phy {

class Radio;

/// Cross-shard lookahead window: one 802.11b long-preamble PLCP overhead.
/// Every frame's airtime is at least this (PLCP + payload), and the
/// hardware-reset switch latency (~4 ms) is over 20x larger, so any
/// cross-shard effect decided while executing window k — a frame landing
/// on a remote shard's radio, a retune completing on another channel —
/// takes effect strictly after the window boundary k*W. That is exactly
/// the safety condition of the conservative lockstep protocol in
/// sim::ShardedSimulator (DESIGN.md §12).
inline constexpr Time kShardLookahead = usec(192);

/// Spatial slop added to the boundary-export margin. A client whose proxy
/// lags one exchange window behind its true position has moved at most
/// speed * 2W (millimetres at vehicular speeds); exporting transmissions
/// within range + slop of a stripe cut covers the lag with three orders of
/// magnitude to spare.
inline constexpr double kShardSlopM = 1.0;

/// Everything a shard needs to host a remote client's phy presence: a
/// proxy slot that occupies the client's grid cell on its channel,
/// draws loss like a local radio would, and forwards its deliveries home.
struct ShardProxyDesc {
  /// Global radio identity: the raw MAC of the client's physical radio.
  std::uint64_t gid = 0;
  wire::Channel channel = 1;
  /// Unicast addresses the client answers for (ARQ gate): [lo, hi). The
  /// client MAC block layout makes this a contiguous range.
  std::uint64_t addr_lo = 0;
  std::uint64_t addr_hi = 0;
  /// Pure function of sim time (the MobilityModel contract) — safe to
  /// evaluate from the owning shard's thread with its own clock.
  std::function<Position(Time)> pos_at;
  double max_speed_mps = 0.0;
};

/// The medium's window into a sharded formation. When installed (via
/// Medium::set_shard_link), the medium intercepts the lifecycle of
/// "shadow" radios — client radios homed on this shard whose phy presence
/// lives on whichever shard owns their channel stripe — and mirrors native
/// transmissions near stripe boundaries to adjacent shards. When no link
/// is installed (every serial run), none of these paths exist and the
/// medium's behaviour is byte-identical to the pre-shard engine.
///
/// All callbacks run on the calling medium's shard thread; implementations
/// communicate only through sim::ShardedSimulator mailboxes.
class ShardLink {
 public:
  virtual ~ShardLink() = default;

  /// True when `mac` identifies a client radio (shadow on its home shard,
  /// proxied on its channel-owning shard). AP radios are never shadows.
  virtual bool is_shadow(wire::MacAddress mac) const = 0;

  /// A shadow radio attached/detached on its home medium (assembly and
  /// teardown time; never mid-run).
  virtual void on_shadow_attach(Radio& radio) = 0;
  virtual void on_shadow_detach(Radio& radio) = 0;

  /// A shadow radio put a frame on the air: route it to every shard owning
  /// a stripe of the radio's channel within range of `tx_pos`. The frame is
  /// handed over (the home medium has no further use for it).
  virtual void on_shadow_transmit(Radio& sender, wire::Frame&& frame,
                                  const Position& tx_pos, BitRate rate) = 0;

  /// A shadow radio's retune completed (channel actually changed): move
  /// its proxy from the old channel's owner to the new one's.
  virtual void on_shadow_retune(Radio& radio, wire::Channel old_channel) = 0;

  /// A native (non-shadow) radio on this shard transmitted: mirror the
  /// fan-out to adjacent-stripe shards when `tx_pos` is within the export
  /// margin of a stripe cut. The common case — this shard owns the whole
  /// channel — must be answered with no sends.
  virtual void on_native_transmit(wire::Channel channel,
                                  const Position& tx_pos,
                                  const wire::Frame& frame, BitRate rate,
                                  std::uint64_t sender_gid) = 0;

  /// A frame survived the loss draw against a proxy slot: forward it to
  /// the client's home shard, where the real radio applies its
  /// listening/channel state and takes the delivery (or drops it).
  virtual void on_proxy_delivery(std::uint64_t gid, const wire::Frame& frame,
                                 double rssi) = 0;
};

}  // namespace spider::phy
