#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace spider::wire {

/// 48-bit MAC address stored in the low bits of a u64. Addresses are
/// allocated sequentially by the test/experiment builders; the broadcast
/// address is all-ones as on real hardware.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::uint64_t raw) : raw_(raw & 0xFFFF'FFFF'FFFFULL) {}

  static constexpr MacAddress broadcast() { return MacAddress(0xFFFF'FFFF'FFFFULL); }
  constexpr bool is_broadcast() const { return raw_ == 0xFFFF'FFFF'FFFFULL; }
  constexpr bool is_null() const { return raw_ == 0; }
  constexpr std::uint64_t raw() const { return raw_; }

  std::string to_string() const;

  constexpr auto operator<=>(const MacAddress&) const = default;

 private:
  std::uint64_t raw_ = 0;
};

/// A contiguous block [lo, hi) of raw MAC addresses: the unicast
/// destinations one radio answers for.
struct MacBlock {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  constexpr bool contains(MacAddress addr) const {
    return addr.raw() >= lo && addr.raw() < hi;
  }
};

/// A BSSID is the MAC address of the AP-side interface of a BSS.
using Bssid = MacAddress;

/// IPv4 address (host byte order).
class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t raw) : raw_(raw) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : raw_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
             (std::uint32_t{c} << 8) | d) {}

  constexpr bool is_null() const { return raw_ == 0; }
  constexpr std::uint32_t raw() const { return raw_; }

  /// Address with the host part replaced by `host` within a /24.
  constexpr Ipv4 with_host(std::uint8_t host) const {
    return Ipv4((raw_ & 0xFFFFFF00u) | host);
  }
  constexpr bool same_subnet24(Ipv4 other) const {
    return (raw_ & 0xFFFFFF00u) == (other.raw_ & 0xFFFFFF00u);
  }

  std::string to_string() const;

  constexpr auto operator<=>(const Ipv4&) const = default;

 private:
  std::uint32_t raw_ = 0;
};

}  // namespace spider::wire

template <>
struct std::hash<spider::wire::MacAddress> {
  std::size_t operator()(const spider::wire::MacAddress& a) const noexcept {
    return std::hash<std::uint64_t>{}(a.raw());
  }
};

template <>
struct std::hash<spider::wire::Ipv4> {
  std::size_t operator()(const spider::wire::Ipv4& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.raw());
  }
};
