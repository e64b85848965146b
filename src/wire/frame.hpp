#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wire/address.hpp"
#include "wire/packet.hpp"

namespace spider::wire {

/// 802.11 channel number (1-11 in the 2.4 GHz band). The paper schedules
/// over the orthogonal set {1, 6, 11}; the medium treats non-identical
/// channels as non-communicating.
using Channel = int;

inline constexpr Channel kOrthogonalChannels[] = {1, 6, 11};

/// Frame subtypes the reproduction models. Management frames cover the
/// scan/auth/assoc handshake; NullData carries the PSM bit; PsPoll retrieves
/// AP-buffered frames after a channel switch.
enum class FrameType {
  kBeacon,
  kProbeRequest,
  kProbeResponse,
  kAuthRequest,
  kAuthResponse,
  kAssocRequest,
  kAssocResponse,
  kDisassoc,
  kDeauth,
  kData,
  kNullData,
  kPsPoll,
};

const char* to_string(FrameType t);

/// A set of frame types, one bit per FrameType.
using FrameTypeMask = std::uint32_t;

constexpr FrameTypeMask frame_type_bit(FrameType t) {
  return FrameTypeMask{1} << static_cast<unsigned>(t);
}

/// Every frame type the reproduction models (kPsPoll is the last one).
inline constexpr FrameTypeMask kAllFrameTypes =
    frame_type_bit(FrameType::kPsPoll) * 2 - 1;

/// A radio's receive filter, as a NIC programs it: the block of unicast
/// destinations the card answers for, plus the frame types it also wants
/// when they are addressed to someone else (or broadcast). The medium
/// schedules a delivery only for frames that pass it (DESIGN.md §10), so a
/// filter must accept every frame its receiver acts on.
struct RxFilter {
  MacBlock addrs;
  FrameTypeMask overheard = kAllFrameTypes;

  constexpr bool overhears(FrameType t) const {
    return (overheard & frame_type_bit(t)) != 0;
  }
};

/// An 802.11 MAC frame. As with packets, no bytes are serialised; the
/// explicit `size_bytes` drives airtime accounting.
struct Frame {
  FrameType type = FrameType::kData;
  MacAddress src;
  MacAddress dst;           ///< broadcast for beacons/probe requests
  Bssid bssid;
  std::size_t size_bytes = 0;

  bool power_mgmt = false;  ///< client->AP: "I am entering power-save"
  bool more_data = false;   ///< AP->client: more buffered frames pending

  std::string ssid;         ///< beacons / probe responses
  std::uint16_t status = 0; ///< auth/assoc response status (0 = success)
  std::uint16_t aid = 0;    ///< association id in AssocResponse
  /// Beacons: the TIM — association ids with frames buffered at the AP.
  std::vector<std::uint16_t> tim_aids;

  PacketPtr packet;         ///< payload of Data frames

  // Filled in by the medium at reception time.
  Channel channel = 0;
  double rssi_dbm = -100.0;
};

/// Canonical frame sizes (bytes, incl. MAC header) for airtime accounting.
inline constexpr std::size_t kMgmtFrameBytes = 60;
inline constexpr std::size_t kBeaconFrameBytes = 120;
inline constexpr std::size_t kNullFrameBytes = 30;
inline constexpr std::size_t kPsPollFrameBytes = 20;
inline constexpr std::size_t kDataHeaderBytes = 34;

/// Builds a data frame wrapping `packet` (adds the MAC header size).
Frame make_data_frame(MacAddress src, MacAddress dst, Bssid bssid, PacketPtr packet);

}  // namespace spider::wire
