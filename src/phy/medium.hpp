#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "phy/propagation.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/units.hpp"
#include "wire/frame.hpp"

namespace spider::phy {

class Radio;
class ShardLink;
struct MediumTestPeer;
struct ShardProxyDesc;

/// The medium's one neighbour index, the spatial grid (DESIGN.md §10).
/// Remains only for the benchmark driver's `cfg.neighbor_index = kGrid`.
enum class NeighborIndex { kGrid };

/// Default max retransmissions of a unicast frame. Stock drivers use ~7;
/// the conservative default of 4 reflects the short-retry behaviour under
/// mobility. The sender's occupancy for retries is not modelled.
inline constexpr int kMediumDefaultRetryLimit = 4;

/// Bucket hysteresis of mobile radios in the grid, as a fraction of the
/// propagation range: a mobile keeps its cell while it stays within this
/// slack of the cell's bounds, so a radio riding a cell boundary is not
/// re-sampled on every transmit (DESIGN.md §10).
inline constexpr double kGridSlackFraction = 0.1;

/// The shared wireless medium.
///
/// Radios register themselves and transmit frames; the medium decides who
/// hears what. Delivery requires (a) same channel, (b) receiver not mid
/// channel-switch, (c) within propagation range, and (d) surviving an
/// independent Bernoulli loss draw from the propagation model. Frames
/// arrive after their serialisation airtime.
///
/// 802.11 link-layer ARQ is modelled statistically: a unicast frame is
/// retransmitted up to kMediumDefaultRetryLimit times, so its delivery
/// probability to its addressee is 1 - p^(retries+1) with each extra attempt
/// adding one airtime of latency. Broadcast frames (beacons, probe requests)
/// get a single attempt, as on real hardware — which is exactly why the
/// paper's join model sees a flat per-message loss h on the handshake while
/// bulk TCP rides an almost-lossless link inside the cell.
///
/// Deliberate simplification: there is no CSMA/collision model. The paper's
/// effects come from scheduling, handshake timeouts and backhaul limits, not
/// from MAC contention (its outdoor cells are sparse); modelling loss as a
/// distance-dependent Bernoulli process keeps runs deterministic per seed
/// and is consistent with the paper's own analytical treatment (flat h).
///
/// Hot-path engineering (see DESIGN.md §8): radios are held in a
/// generation-stamped slot registry, so in-flight deliveries validate the
/// receiver in O(1) (immune to a new radio reusing a detached radio's
/// address), and bucket into one uniform spatial hash grid per channel
/// (DESIGN.md §10): transmit visits only the 3x3 cell neighborhood of the
/// transmitter on its own channel, in attach order — the order a scan of
/// the whole channel would visit, so every RNG draw and delivered-frame set
/// is independent of the cell size. Cells are flat SoA lanes (slot /
/// attach_seq / position / generation in parallel contiguous arrays,
/// attach_seq-sorted) behind an open-addressed cell table. Each cell caches
/// its 3x3 neighborhood, a 9-way sorted merge of the lanes around it,
/// rebuilt only after the channel's membership changes, so a transmit
/// costs one table probe and a copy — no hashing chains, no per-transmit
/// merge or sort, no per-candidate position() calls. A receiver's declared
/// filter (wire::RxFilter) drops frames it would discard before any
/// delivery is scheduled. The
/// frame body is moved once into a refcounted pooled cell; each scheduled
/// delivery carries only {cell index, slot, generation, rssi} — a trivially
/// copyable reception record that rides the event queue's inline buffer via
/// its memcpy fast path, so the whole fan-out performs zero heap
/// allocations in steady state.
class Medium {
 public:
  Medium(sim::Simulator& simulator, Propagation propagation, Rng rng);

  /// Radios self-register from their constructor/destructor.
  void attach(Radio& radio);
  void detach(Radio& radio);

  /// Broadcasts `frame` from `sender` on the sender's current channel.
  /// Called by Radio once the frame reaches the head of its TX queue.
  void transmit(Radio& sender, wire::Frame frame);

  const Propagation& propagation() const { return propagation_; }
  sim::Simulator& simulator() { return sim_; }
  /// Grid cell edge: range + slack (DESIGN.md §10).
  double grid_cell_m() const { return cell_m_; }
  /// Mobile bucket hysteresis in meters (kGridSlackFraction of the range).
  double grid_slack_m() const { return slack_m_; }

  /// Fault-injection hook: adds `extra_loss` (in [0,1]) to every frame on
  /// `channel`, combined independently with the propagation loss. One
  /// impairment per channel; setting again overwrites, clearing zeroes it.
  void set_channel_impairment(wire::Channel channel, double extra_loss);
  void clear_channel_impairment(wire::Channel channel);
  /// Current extra loss on `channel` (0 when unimpaired).
  double channel_impairment(wire::Channel channel) const;

  /// Airtime of a frame of `bytes` at `rate` (PLCP preamble + payload).
  static Time airtime(std::size_t bytes, BitRate rate);

  std::uint64_t frames_sent() const { return perf_.frames_tx; }
  /// Frames that actually reached a receiver's upcall (counted at delivery
  /// time, not when scheduled — a receiver that detaches or retunes while
  /// the frame is in the air is a drop, not a delivery).
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  /// In-flight frames that missed because the receiver detached, retuned,
  /// or was mid-reset when the frame arrived.
  std::uint64_t frames_dropped_at_rx() const { return frames_dropped_at_rx_; }
  /// Per-receiver deliveries scheduled (fan-out actually put on the wire).
  std::uint64_t fanout_scheduled() const { return perf_.frames_fanout; }
  /// Same-channel candidate radios examined across all transmits.
  std::uint64_t candidates_examined() const { return perf_.radio_candidates; }
  /// *Occupied* grid cells in the neighborhoods of all transmits (at most
  /// 9 per transmit; empty cells are not counted). Counted per transmit
  /// whether the neighborhood came from the cache or a rebuild.
  std::uint64_t grid_cells_scanned() const { return perf_.grid_cells_scanned; }
  /// Mobile radios moved between grid cells by the position-epoch sweep
  /// (stationary radios never contribute).
  std::uint64_t grid_rebuckets() const { return perf_.grid_rebuckets; }

  /// The medium's fan-out counters, kept in place in a run-counter record
  /// (every other field stays zero); the run merges it per shard.
  const sim::PerfCounters& perf() const { return perf_; }

  // --- sharded formations (DESIGN.md §12) ------------------------------
  // With a ShardLink installed this medium is one shard of a partitioned
  // city: client radios homed here become "shadows" (registered but absent
  // from the grid — their phy presence lives on the shard owning
  // their channel stripe), remote clients appear as proxy slots, and
  // native transmissions near stripe cuts are mirrored to neighbours.
  // With no link (every serial run) all of these paths are dead and the
  // medium is byte-identical to the pre-shard engine.

  /// Installs the formation adapter (not owned; null detaches). Must be
  /// called before any radio attaches.
  void set_shard_link(ShardLink* link) { shard_link_ = link; }
  ShardLink* shard_link() const { return shard_link_; }

  /// Materialises / tears down a remote client's proxy slot on this shard.
  /// Called via mailbox thunks on this medium's shard thread.
  void proxy_attach(const ShardProxyDesc& desc);
  void proxy_detach(std::uint64_t gid);

  /// Remote fan-out: replays the local transmit tail (range gate, loss
  /// draws, delivery scheduling) for a frame transmitted on another shard
  /// at decision time `t0` from `tx_pos`. `exclude_gid` skips the sender's
  /// own proxy, mirroring the local loop's sender skip.
  void inject_shard_fanout(wire::Channel channel, const Position& tx_pos,
                           Time t0, BitRate rate, wire::Frame frame,
                           std::uint64_t exclude_gid);

  /// Home-side bookkeeping for a delivery forwarded from a proxy: the
  /// owning shard drew the loss, this (home) shard applied the radio's
  /// listening/channel state. Keeps delivered/dropped exact sums across
  /// the formation.
  void note_forwarded_delivery(bool delivered) {
    ++(delivered ? frames_delivered_ : frames_dropped_at_rx_);
  }

 private:
  friend class Radio;
  /// Test-only backdoor (tests/test_spatial_index.cpp): corrupts private
  /// grid state to pin the checked-fatal invariant paths and the empty
  /// candidate-set counter guard.
  friend struct MediumTestPeer;

  /// A remote client's standing on this shard: enough state to stand in
  /// for the real radio in the transmit loop (position, receive filter)
  /// and to forward survivors home. Owned by proxies_; slots point here.
  struct ProxyInfo {
    std::uint64_t gid = 0;
    wire::Channel channel = 1;
    wire::RxFilter filter;  ///< the client radio's, copied at registration
    std::function<Position(Time)> pos_at;
    std::uint32_t slot = 0;
  };

  /// Slot registry entry. `generation` bumps on every attach *and* detach,
  /// so an in-flight delivery stamped with (slot, generation) can tell a
  /// still-attached receiver from any later tenant of the same slot — even
  /// one allocated at the detached radio's exact address.
  struct Slot {
    Radio* radio = nullptr;
    /// Remote client stand-in (sharded formations only; see ProxyInfo).
    /// Mutually exclusive with `radio`.
    ProxyInfo* proxy = nullptr;
    /// Client radio homed on this shard whose phy presence lives on the
    /// channel-owning shard: registered (liveness, id) but in no grid.
    bool shadow = false;
    std::uint32_t generation = 0;
    std::uint64_t attach_seq = 0;  ///< global attach order, for RNG stability
    std::uint64_t cell = 0;        ///< packed grid cell currently bucketed in
    /// Cached grid location: index of `cell` in the channel grid's SoA pool
    /// and this slot's rank in that cell's lanes. Lets grid_remove and the
    /// rebucket path reach the member with no hash find and no lower_bound.
    /// Pool indices survive rehashes (cells are never moved or erased);
    /// lane ranks are maintained by insert_sorted/erase_at on the rare
    /// shifts (attach, detach, rebucket).
    std::uint32_t cell_idx = 0;
    std::uint32_t lane_idx = 0;
    /// Bucket box: `cell`'s bounds grown by the hysteresis slack, then
    /// shrunk by eps = cell_m * 1e-6 on each side (the shrink exceeds every
    /// rounding error of the k*cell_m products). A mobile keeps `cell`
    /// while its position stays inside — four compares, no divides — and
    /// moves to its true floor(x / cell_m) cell once it leaves. Every
    /// bucketed radio is therefore within `slack` of its cell on each
    /// axis, which a cell edge >= range + slack absorbs (DESIGN.md §10).
    double qx0 = 1.0, qx1 = 0.0;  ///< empty box until grid_insert fills it
    double qy0 = 1.0, qy1 = 0.0;
    /// Copy of RadioConfig::max_speed_mps (0 = no motion bound declared).
    double max_speed = 0.0;
    /// Motion-bound horizon: with a declared speed ceiling, the earliest
    /// sim time at which this radio could leave its bucket box. The mobile
    /// sweep skips the slot (no position() call, no lane refresh) while
    /// now < safe_until — its bucket provably still holds. Just after a
    /// (re)bucket the horizon is at least ~slack / ceiling. Time{0} (no
    /// ceiling) disables the skip.
    Time safe_until{0};
    /// Sim time the position lanes were last written. A transmit's grid
    /// loop re-samples a mobile candidate whose lanes are stale (skipped by
    /// the horizon above), so examined candidates always see positions
    /// bit-identical to position() at the current timestamp.
    Time pos_stamp{-1};
    bool mobile = false;  ///< member of the position-epoch sweep
  };

  /// Called by Radio when its tuned channel actually changes.
  void retune(Radio& radio, wire::Channel old_channel);

  /// Allocates (or recycles) a registry slot and bumps its generation.
  std::uint32_t allocate_slot();
  /// Candidate position regardless of kind: real radios sample their
  /// position callback, proxies their time-parameterised stand-in.
  Position slot_position(const Slot& s) const;
  /// The shared transmit tail: candidate walk, range gate, loss draws,
  /// delivery scheduling. Local transmits pass their own slot (skipped
  /// without being counted, exactly the historical accounting) and t0 ==
  /// now; remote injections pass kNoSenderSlot, the sender's gid (so its
  /// own proxy is skipped) and the original decision time, preserved so a
  /// forwarded fan-out schedules deliveries at the same absolute
  /// timestamps the sender's shard would have.
  static constexpr std::uint32_t kNoSenderSlot = 0xFFFFFFFFu;
  void fanout(wire::Channel channel, const Position& tx_pos, Time t0,
              BitRate rate, wire::Frame&& frame, std::uint32_t sender_slot,
              std::uint64_t exclude_gid);

  // --- spatial grid -----------------------------------------------------

  /// Flat SoA storage for one grid cell: member slots and their attach
  /// seqs, kept sorted by attach_seq so the 3x3 gather is a 9-way sorted
  /// merge (no per-transmit sort). Positions are NOT stored here — they
  /// live in the medium's central pos_x_/pos_y_ lanes, so the mobile sweep
  /// refreshes a position with two contiguous stores instead of chasing
  /// into the member's cell.
  struct CellSoA {
    std::uint64_t key = 0;  ///< packed (cx, cy), for table rebuilds
    std::vector<std::uint32_t> slots;
    std::vector<std::uint64_t> seqs;  ///< attach_seq, ascending
    /// Cached 3x3 neighborhood of this cell: the members of the nine
    /// cells around it (itself included) in attach order, and how many of
    /// those cells were occupied. Valid while hood_epoch equals the
    /// grid's epoch; the next transmit from this cell rebuilds it after.
    std::vector<std::uint32_t> hood;
    std::uint32_t hood_cells = 0;
    std::uint64_t hood_epoch = 0;
    bool empty() const { return slots.empty(); }
    std::size_t size() const { return slots.size(); }
    /// Sorted insert at the attach_seq rank, updating the registry's cached
    /// lane ranks for the inserted slot and everything it shifted. New
    /// attaches carry the largest seq yet issued, so the common case is an
    /// append that touches one registry entry.
    void insert_sorted(std::vector<Slot>& registry, std::uint32_t slot,
                       std::uint64_t seq);
    /// Erase lane `i` and re-rank the members shifted down.
    void erase_at(std::vector<Slot>& registry, std::size_t i);
  };

  /// One channel's spatial hash: an open-addressed (linear probing) table
  /// from packed cell to an index into a pool of SoA cells. Cells are never
  /// erased from the table (a cell that empties keeps its storage), so the
  /// pool is bounded by the distinct cells ever occupied or transmitted
  /// from, and linear probing needs no tombstones.
  struct ChannelGrid {
    static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

    std::vector<std::uint64_t> keys;  ///< table: packed cell per bucket
    std::vector<std::uint32_t> vals;  ///< table: cell index or kNoCell
    std::vector<CellSoA> cells;       ///< SoA pool; indices are stable
    std::size_t bucket_mask = 0;      ///< capacity - 1 (0: unallocated)
    /// Bumped by every membership change (grid_insert / grid_remove), which
    /// invalidates every cell's cached neighborhood at once.
    std::uint64_t epoch = 1;

    /// Table lookup (empty cells are found too).
    std::uint32_t find(std::uint64_t key) const;
    /// Lookup-or-insert; grows and rehashes at 50% load.
    std::uint32_t find_or_create(std::uint64_t key);
    void rehash(std::size_t capacity);
  };

  /// Everything the medium keeps per channel: its grid, the roster of
  /// its mobile slots (the position-epoch sweep's membership, so a transmit
  /// sweeps only its own channel's mobiles; order is irrelevant for
  /// determinism — rebucketing consumes no RNG — but kept stable anyway),
  /// the sim timestamp of its last mobile sweep (positions are pure
  /// functions of sim time, so buckets refreshed at `now` stay exact until
  /// the clock advances), and its fault-injected extra loss.
  struct ChannelState {
    ChannelGrid grid;
    std::vector<std::uint32_t> mobiles;
    Time last_refresh{-1};
    double impairment = 0.0;
  };

  /// Channels below this bound (the whole 2.4 GHz band; the paper sweeps
  /// {1,6,11}) keep their state in a flat array — no hashing on the
  /// transmit path. Anything else falls back to a map.
  static constexpr int kFlatChannels = 15;
  static bool flat_channel(wire::Channel c) {
    return c >= 0 && c < kFlatChannels;
  }
  /// The channel's record, created on first use.
  ChannelState& channel_state(wire::Channel channel);

  static std::uint64_t pack_cell(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  std::int32_t cell_coord(double meters) const;
  void grid_insert(ChannelState& state, std::uint32_t slot,
                   const Position& pos);
  void grid_remove(ChannelState& state, std::uint32_t slot);
  /// Invariant breach on the grid hot path (a slot absent from its recorded
  /// cell): prints and aborts in every build flavour. Release builds used
  /// to ride an assert straight into UB on the dangling lookup.
  [[noreturn]] static void grid_fatal(const char* what);
  /// Per-channel position-epoch sweep: once per distinct sim timestamp
  /// *per channel*, re-sample that channel's mobile radios, refresh their
  /// position lanes, and move the ones that left their bucket box.
  /// Stationary radios and other channels' mobiles are never touched, and
  /// mobiles with a declared speed ceiling are skipped outright while
  /// their motion-bound horizon (Slot::safe_until) proves they cannot have
  /// left their box — the amortisation that keeps the sweep sub-linear in
  /// mobiles per timestamp.
  void refresh_mobile_buckets(ChannelState& state);
  /// Earliest sim time at which a speed-bounded slot at `pos` could leave
  /// its bucket box (requires s.max_speed > 0). Measured against the box
  /// minus a 1 mm guard, with sec() truncating — every error source
  /// under-estimates the horizon, never over.
  Time motion_horizon(const Slot& s, const Position& pos) const;
  /// The 3x3 neighborhood of `pos` in `grid`, in the channel's attach
  /// order: the cached list of the cell holding `pos` (created if absent),
  /// rebuilt first when stale. Valid until the grid's next membership
  /// change or cell creation. Candidate positions and generations are read
  /// from the central per-slot lanes, fresh as of refresh_mobile_buckets.
  const std::vector<std::uint32_t>& gather_neighborhood(ChannelGrid& grid,
                                                        const Position& pos);
  /// Recomputes `home`'s cached neighborhood: a 9-way merge of the
  /// attach_seq-sorted lanes of the occupied cells around it.
  static void rebuild_neighborhood(const ChannelGrid& grid, CellSoA& home);
  /// Buckets a slot on `channel` (attach, proxy attach, retune): into the
  /// grid, and into the mobile roster when `mobile`.
  void place(wire::Channel channel, std::uint32_t slot, const Position& pos,
             bool mobile, double max_speed);
  /// The inverse of place (detach, proxy detach, retune).
  void unplace(wire::Channel channel, std::uint32_t slot);

  sim::Simulator& sim_;
  Propagation propagation_;
  Rng rng_;
  double slack_m_ = 0.0;
  double cell_m_ = 0.0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_attach_seq_ = 0;
  /// Per-channel records: channels below kFlatChannels index the array,
  /// the rest the map (whose references survive rehashes).
  std::array<ChannelState, kFlatChannels> channels_flat_;
  std::unordered_map<wire::Channel, ChannelState> channels_other_;
  /// Central per-slot position lanes (indexed by slot id). For static
  /// radios they are sampled once at grid_insert; for mobiles the
  /// position-epoch sweep rewrites them each distinct timestamp, so at
  /// transmit time pos_x_[slot] is bit-identical to what
  /// slots_[slot].radio->position() would return (positions are pure
  /// functions of sim time — the MobilityModel contract).
  std::vector<double> pos_x_;
  std::vector<double> pos_y_;

  /// Sharded formations only (null in every serial run).
  ShardLink* shard_link_ = nullptr;
  std::unordered_map<std::uint64_t, std::unique_ptr<ProxyInfo>> proxies_;

  /// One transmitted frame body shared by its whole fan-out. `refs` counts
  /// scheduled deliveries still in flight (non-atomic: the medium lives on
  /// one simulation thread); cells are recycled through free_bodies_, so
  /// steady-state transmits reuse storage instead of allocating. A deque
  /// keeps cell references stable while a deliver() upcall reentrantly
  /// transmits (which may grow the pool).
  struct BodyCell {
    wire::Frame frame;
    std::uint32_t refs = 0;
  };
  std::deque<BodyCell> bodies_;
  std::vector<std::uint32_t> free_bodies_;

  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_dropped_at_rx_ = 0;
  sim::PerfCounters perf_;
};

}  // namespace spider::phy
