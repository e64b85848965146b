#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "phy/shard_link.hpp"
#include "sim/sharded.hpp"
#include "util/time.hpp"
#include "util/units.hpp"
#include "wire/frame.hpp"

namespace spider::phy {

class Medium;
class Radio;

/// Upper bound on formation width (ScenarioConfig::validate enforces it).
inline constexpr int kMaxShards = sim::kMaxShards;

/// One contiguous x-stripe of a channel. A stripe covers [previous stripe's
/// x1, x1); the last stripe of a channel has x1 = +infinity. Stripe lists
/// are ascending in x1.
struct ShardStripe {
  double x1 = 0.0;
  int shard = 0;
};

/// The static channel/space -> shard map of a formation. Built once from
/// the AP population before radios attach; immutable afterwards, so every
/// shard thread reads it without synchronisation.
struct ShardPartition {
  int shards = 1;
  /// Boundary-export margin: propagation range + kShardSlopM.
  double margin_m = 0.0;
  std::unordered_map<wire::Channel, std::vector<ShardStripe>> stripes;

  /// Shard owning position x on channel c. Channels with no stripe entry
  /// (a client scanning a channel no AP uses) hash to a fixed shard.
  int owner(wire::Channel c, double x) const;
  /// Fills `out` (capacity >= kMaxShards) with every shard owning a stripe
  /// of `c` that intersects [x - margin, x + margin]; returns the count.
  /// Deduplicated; order follows the stripe list.
  int targets(wire::Channel c, double x, int* out) const;
  /// Fills `out` (capacity >= kMaxShards) with every shard owning any
  /// stripe of `c`, position-independent (absent channel: the owner()
  /// fallback shard). Deduplicated; order follows the stripe list. Fault
  /// routing uses this: a channel-scoped fault must reach every medium
  /// that can carry the channel's frames, including the shard a migrating
  /// proxy lands on mid-fault.
  int stripe_owners(wire::Channel c, int* out) const;
  /// Distance from x to the nearer cut of the stripe of `c` holding x
  /// (infinite for a channel that is not split).
  double cut_distance(wire::Channel c, double x) const;
  /// True when any channel is split spatially (i.e. proxies can migrate).
  bool spatial() const;
};

/// Builds the partition from the AP population: channels first (a shard
/// owning a whole channel exchanges nothing for it), then heavy channels
/// split into equal-AP-count x-stripes cut between adjacent APs, and all
/// pieces greedily packed onto shards by AP count (LPT). Deterministic and
/// machine-independent: depends only on (sites, shards, range).
ShardPartition build_shard_partition(
    const std::vector<std::pair<wire::Channel, double>>& ap_sites, int shards,
    double range_m);

/// The formation adapter: one ShardFabric spans all shards of a run,
/// implementing ShardLink for each shard's medium and owning the client
/// registry that maps a shadow radio to its current proxy placement.
///
/// Threading contract (TSan-verified by the sharded smoke):
///  - the registry's *structure* mutates only before run_until / after the
///    workers join (register_client, attach/detach);
///  - ClientInfo::cur_shard / cur_channel / placed are written only by the
///    client's home shard thread (retune upcalls and the migration sweep)
///    and read only there;
///  - other threads (a proxy's owner forwarding a delivery) read only the
///    immutable fields (home, receive filter, pos_at);
///  - all cross-shard effects travel as ShardedSimulator mailbox thunks.
class ShardFabric {
 public:
  /// `mediums[s]` is shard s's medium; `is_client` classifies radio MACs
  /// (true = client radio, shadow on its home shard). Installs itself as
  /// every medium's shard link and, when the partition is spatial, a
  /// per-window migration sweep on every shard.
  ShardFabric(sim::ShardedSimulator& bus, std::vector<Medium*> mediums,
              ShardPartition partition,
              std::function<bool(wire::MacAddress)> is_client);
  ~ShardFabric();
  ShardFabric(const ShardFabric&) = delete;
  ShardFabric& operator=(const ShardFabric&) = delete;

  /// Declares a client radio homed on shard `home` and places its proxy on
  /// the owner of its current channel stripe. Call after constructing the
  /// radio (its attach has already been intercepted) and before
  /// ShardedSimulator::drain_initial, from the coordinating thread.
  /// `pos_at` must be a pure function of sim time (the MobilityModel
  /// contract). The proxy applies the radio's declared receive filter
  /// (ARQ gate and drops), so set it before registering.
  void register_client(int home, Radio& radio,
                       std::function<Position(Time)> pos_at,
                       double max_speed_mps);

  const ShardPartition& partition() const { return partition_; }
  /// Proxies moved across a stripe cut by the migration sweep.
  std::uint64_t migrations() const {
    return migrations_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-shard face of the fabric (the pointer installed into a medium).
  struct Port final : ShardLink {
    ShardFabric* fab = nullptr;
    int shard = 0;

    bool is_shadow(wire::MacAddress mac) const override;
    void on_shadow_attach(Radio& radio) override;
    void on_shadow_detach(Radio& radio) override;
    void on_shadow_transmit(Radio& sender, wire::Frame&& frame,
                            const Position& tx_pos, BitRate rate) override;
    void on_shadow_retune(Radio& radio, wire::Channel old_channel) override;
    void on_native_transmit(wire::Channel channel, const Position& tx_pos,
                            const wire::Frame& frame, BitRate rate,
                            std::uint64_t sender_gid) override;
    void on_proxy_delivery(std::uint64_t gid, const wire::Frame& frame,
                           double rssi) override;
  };

  struct ClientInfo {
    Radio* radio = nullptr;  ///< null before attach / after teardown
    int home = 0;
    std::function<Position(Time)> pos_at;
    double max_speed = 0.0;
    wire::RxFilter filter;
    // Home-thread-only placement state.
    int cur_shard = -1;
    wire::Channel cur_channel = 1;
    bool placed = false;
    /// Earliest sim time the client could leave its current stripe (from
    /// the distance to the nearest cut and max_speed); the sweep skips it
    /// until then. Reset whenever the placement changes.
    Time next_sweep{0};
  };

  /// Fills `out` with every shard whose stripe of `channel` is within the
  /// export margin of x; returns the count. `from` is the sending shard;
  /// its own medium is skipped for native senders (they already fanned out
  /// locally) but *not* for shadows (a shadow has no local phy presence —
  /// its proxy may live right here).
  int route_targets(int from, bool skip_self, wire::Channel channel, double x,
                    int* out) const;
  /// Mails one fan-out injection of `frame` from shard `from` to `to`.
  void send_fanout(int from, int to, wire::Channel channel,
                   const Position& tx_pos, Time t0, BitRate rate,
                   wire::Frame frame, std::uint64_t exclude_gid);
  /// Sends depart (old placement) + arrive (new) thunks and updates the
  /// placement. Home thread only.
  void move_proxy(int home, ClientInfo& info, std::uint64_t gid,
                  wire::Channel channel, int new_shard);
  /// Applies a forwarded delivery on the client's home shard: the owner
  /// already drew the loss; here the real radio's listening/channel state
  /// decides delivery vs drop.
  void deliver_home(const ClientInfo& info, const wire::Frame& frame);
  /// Per-window home-side sweep: re-place proxies whose client crossed a
  /// stripe cut. Installed as a ShardedSimulator window hook when the
  /// partition is spatial. A client is sampled only once it could have
  /// reached a cut of its stripe (ClientInfo::next_sweep), so the sweep
  /// makes the same moves at the same windows as sampling every client
  /// every window.
  void migrate_sweep(int shard);

  sim::ShardedSimulator& bus_;
  std::vector<Medium*> mediums_;
  ShardPartition partition_;
  std::function<bool(wire::MacAddress)> is_client_;
  std::vector<Port> ports_;
  std::unordered_map<std::uint64_t, ClientInfo> clients_;
  /// Per-shard home rosters (pointers into clients_, stable: node-based
  /// map, structure frozen during the run).
  std::vector<std::vector<std::pair<std::uint64_t, ClientInfo*>>> homed_;
  std::atomic<std::uint64_t> migrations_{0};
};

}  // namespace spider::phy
