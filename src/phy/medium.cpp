#include "phy/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/tracer.hpp"
#include "phy/radio.hpp"
#include "phy/shard_link.hpp"

namespace spider::phy {

namespace {
/// 802.11b long-preamble PLCP overhead.
constexpr Time kPlcpOverhead = usec(192);

/// Safety margin subtracted from the distance-to-boundary before a motion
/// horizon is derived from it. One millimetre dwarfs both the fp rounding
/// of the mobility models' position arithmetic (~1e-10 m over any plausible
/// run) and the distance covered during the one truncated tick of sec()
/// (1e-4 m even at 100 m/s).
constexpr double kMotionGuardM = 1e-3;

/// splitmix64 finalizer: one multiply-xorshift round per half. Packed cells
/// of adjacent coordinates differ in low bits of either word; this spreads
/// them across the whole table so linear probe runs stay short.
inline std::uint64_t mix_cell(std::uint64_t key) {
  key += 0x9E3779B97F4A7C15ull;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
  return key ^ (key >> 31);
}

}  // namespace

// --- CellSoA: attach_seq-sorted per-cell lanes -------------------------

void Medium::CellSoA::insert_sorted(std::vector<Slot>& registry,
                                    std::uint32_t slot, std::uint64_t seq) {
  const auto it = std::lower_bound(seqs.begin(), seqs.end(), seq);
  const auto i = static_cast<std::size_t>(it - seqs.begin());
  seqs.insert(it, seq);
  slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(i), slot);
  for (std::size_t j = i; j < slots.size(); ++j) {
    registry[slots[j]].lane_idx = static_cast<std::uint32_t>(j);
  }
}

void Medium::CellSoA::erase_at(std::vector<Slot>& registry, std::size_t i) {
  const auto d = static_cast<std::ptrdiff_t>(i);
  seqs.erase(seqs.begin() + d);
  slots.erase(slots.begin() + d);
  for (std::size_t j = i; j < slots.size(); ++j) {
    registry[slots[j]].lane_idx = static_cast<std::uint32_t>(j);
  }
}

// --- ChannelGrid: flat cell table -------------------------------------

std::uint32_t Medium::ChannelGrid::find(std::uint64_t key) const {
  if (bucket_mask == 0) return kNoCell;
  std::size_t i = mix_cell(key) & bucket_mask;
  while (vals[i] != kNoCell) {
    if (keys[i] == key) return vals[i];
    i = (i + 1) & bucket_mask;
  }
  return kNoCell;
}

std::uint32_t Medium::ChannelGrid::find_or_create(std::uint64_t key) {
  // Cells are never erased, so load is cells.size() / capacity; growing at
  // 50% keeps probe runs O(1).
  if (bucket_mask == 0) {
    rehash(64);
  } else if ((cells.size() + 1) * 2 > bucket_mask + 1) {
    rehash((bucket_mask + 1) * 2);
  }
  std::size_t i = mix_cell(key) & bucket_mask;
  while (vals[i] != kNoCell) {
    if (keys[i] == key) return vals[i];
    i = (i + 1) & bucket_mask;
  }
  const auto ci = static_cast<std::uint32_t>(cells.size());
  cells.emplace_back();
  cells.back().key = key;
  keys[i] = key;
  vals[i] = ci;
  return ci;
}

void Medium::ChannelGrid::rehash(std::size_t capacity) {
  bucket_mask = capacity - 1;
  keys.assign(capacity, 0);
  vals.assign(capacity, kNoCell);
  for (std::uint32_t ci = 0; ci < cells.size(); ++ci) {
    std::size_t i = mix_cell(cells[ci].key) & bucket_mask;
    while (vals[i] != kNoCell) i = (i + 1) & bucket_mask;
    keys[i] = cells[ci].key;
    vals[i] = ci;
  }
}

// --- Medium ------------------------------------------------------------

Medium::Medium(sim::Simulator& simulator, Propagation propagation, Rng rng)
    : sim_(simulator),
      propagation_(propagation),
      rng_(rng),
      slack_m_(kGridSlackFraction * propagation_.config().range_m),
      // Correctness of the 3x3 neighborhood needs cell >= range + slack (a
      // receiver at exactly range_m, bucketed up to `slack` outside its
      // cell, must still land no further than one cell away); the floor
      // keeps degenerate zero-range propagation configs from dividing by
      // zero in cell_coord.
      cell_m_(std::max(propagation_.config().range_m + slack_m_, 1e-3)) {}

Medium::ChannelState& Medium::channel_state(wire::Channel channel) {
  if (flat_channel(channel)) {
    return channels_flat_[static_cast<std::size_t>(channel)];
  }
  return channels_other_[channel];
}

void Medium::set_channel_impairment(wire::Channel channel, double extra_loss) {
  const double clamped = std::clamp(extra_loss, 0.0, 1.0);
  channel_state(channel).impairment = clamped;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kImpairmentSet,
               .channel = static_cast<std::int16_t>(channel),
               .track = obs::track::channel(channel), .value = clamped);
}

void Medium::clear_channel_impairment(wire::Channel channel) {
  channel_state(channel).impairment = 0.0;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kImpairmentClear,
               .channel = static_cast<std::int16_t>(channel),
               .track = obs::track::channel(channel));
}

double Medium::channel_impairment(wire::Channel channel) const {
  if (flat_channel(channel)) {
    return channels_flat_[static_cast<std::size_t>(channel)].impairment;
  }
  const auto it = channels_other_.find(channel);
  return it == channels_other_.end() ? 0.0 : it->second.impairment;
}

std::int32_t Medium::cell_coord(double meters) const {
  return static_cast<std::int32_t>(std::floor(meters / cell_m_));
}

void Medium::grid_fatal(const char* what) {
  std::fprintf(stderr, "spider::phy::Medium: grid invariant violated: %s\n",
               what);
  std::abort();
}

Time Medium::motion_horizon(const Slot& s, const Position& pos) const {
  const double d = std::min(std::min(pos.x - s.qx0, s.qx1 - pos.x),
                            std::min(pos.y - s.qy0, s.qy1 - pos.y)) -
                   kMotionGuardM;
  if (d <= 0.0) return sim_.now();  // boundary-adjacent: no skippable window
  return sim_.now() + sec(d / s.max_speed);
}

void Medium::grid_insert(ChannelState& state, std::uint32_t slot,
                         const Position& pos) {
  Slot& s = slots_[slot];
  const std::int32_t cx = cell_coord(pos.x);
  const std::int32_t cy = cell_coord(pos.y);
  s.cell = pack_cell(cx, cy);
  // Bucket box for the mobile sweep: the cell grown by the hysteresis
  // slack, less eps (see the Slot doc).
  const double grow = slack_m_ - cell_m_ * 1e-6;
  s.qx0 = static_cast<double>(cx) * cell_m_ - grow;
  s.qx1 = static_cast<double>(cx + 1) * cell_m_ + grow;
  s.qy0 = static_cast<double>(cy) * cell_m_ - grow;
  s.qy1 = static_cast<double>(cy + 1) * cell_m_ + grow;
  pos_x_[slot] = pos.x;
  pos_y_[slot] = pos.y;
  s.pos_stamp = sim_.now();
  if (s.max_speed > 0.0) s.safe_until = motion_horizon(s, pos);
  ChannelGrid& g = state.grid;
  const std::uint32_t ci = g.find_or_create(s.cell);
  s.cell_idx = ci;
  g.cells[ci].insert_sorted(slots_, slot, s.attach_seq);
  ++g.epoch;  // every cached neighbourhood is stale now
}

void Medium::grid_remove(ChannelState& state, std::uint32_t slot) {
  ChannelGrid& g = state.grid;
  const Slot& s = slots_[slot];
  if (s.cell_idx >= g.cells.size() || g.cells[s.cell_idx].key != s.cell) {
    grid_fatal("grid_remove: slot's recorded cell is absent from its grid");
  }
  CellSoA& cell = g.cells[s.cell_idx];
  if (s.lane_idx >= cell.size() || cell.slots[s.lane_idx] != slot) {
    grid_fatal("grid_remove: slot missing from its recorded cell");
  }
  cell.erase_at(slots_, s.lane_idx);
  ++g.epoch;  // every cached neighbourhood is stale now
}

void Medium::refresh_mobile_buckets(ChannelState& state) {
  const Time now = sim_.now();
  if (now == state.last_refresh) return;
  state.last_refresh = now;
  for (const std::uint32_t slot : state.mobiles) {
    Slot& s = slots_[slot];
    // Motion-bound amortisation: a radio with a declared speed ceiling
    // provably cannot have left its bucket box before safe_until, so its
    // bucket still holds and the position() call is skipped entirely. Its
    // lanes go stale; the transmit loop re-samples it lazily iff it
    // actually turns up as a candidate.
    if (now < s.safe_until) continue;
    const Position pos = slot_position(s);
    s.pos_stamp = now;
    if (pos.x >= s.qx0 && pos.x < s.qx1 && pos.y >= s.qy0 && pos.y < s.qy1) {
      // Inside the bucket box: keep the bucket, proven without a divide.
      // This is the overwhelmingly common case, and the sweep's whole
      // per-mobile cost beyond the position callback: two contiguous
      // stores. The slack means a radio riding a cell boundary stays here
      // too, instead of flapping between cells.
      pos_x_[slot] = pos.x;
      pos_y_[slot] = pos.y;
      if (s.max_speed > 0.0) s.safe_until = motion_horizon(s, pos);
      continue;
    }
    // Left the box: the slack puts it outside its cell, so it moves to its
    // true cell (only a zero-range config has no slack; re-entering the
    // same cell is still exact there). grid_remove checks the recorded
    // cell and aborts on a corrupt one.
    grid_remove(state, slot);
    grid_insert(state, slot, pos);
    ++perf_.grid_rebuckets;
  }
}

const std::vector<std::uint32_t>& Medium::gather_neighborhood(
    ChannelGrid& g, const Position& pos) {
  const std::uint64_t key = pack_cell(cell_coord(pos.x), cell_coord(pos.y));
  CellSoA& home = g.cells[g.find_or_create(key)];
  if (home.hood_epoch != g.epoch) {
    rebuild_neighborhood(g, home);
    home.hood_epoch = g.epoch;
  }
  // Counted per query, as if the occupied cells were probed afresh, so the
  // counter reads the same whether or not the cache was warm.
  perf_.grid_cells_scanned += home.hood_cells;
  return home.hood;
}

void Medium::rebuild_neighborhood(const ChannelGrid& g, CellSoA& home) {
  home.hood.clear();
  const auto cx = static_cast<std::int32_t>(home.key >> 32);
  const auto cy = static_cast<std::int32_t>(home.key & 0xFFFFFFFFu);
  // Occupied cells among the 9 around `home` (itself included).
  const CellSoA* lists[9];
  std::size_t heads[9];
  int n = 0;
  std::size_t total = 0;
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const std::uint32_t ci = g.find(pack_cell(cx + dx, cy + dy));
      if (ci == ChannelGrid::kNoCell || g.cells[ci].empty()) continue;
      lists[n] = &g.cells[ci];
      heads[n] = 0;
      total += lists[n]->size();
      ++n;
    }
  }
  home.hood_cells = static_cast<std::uint32_t>(n);
  if (n == 0) return;
  // Order-preservation rule (DESIGN.md §10): the RNG-consuming loss draws
  // in transmit must visit candidates in the channel's attach order, so
  // the merged neighborhood is emitted in ascending attach_seq — the order
  // every per-cell lane already keeps. A 9-way sorted merge replaces the
  // old gather-then-sort.
  home.hood.reserve(total);
  while (n > 1) {
    int best = 0;
    std::uint64_t best_seq = lists[0]->seqs[heads[0]];
    for (int j = 1; j < n; ++j) {
      const std::uint64_t seq = lists[j]->seqs[heads[j]];
      if (seq < best_seq) {
        best = j;
        best_seq = seq;
      }
    }
    const CellSoA& c = *lists[best];
    home.hood.push_back(c.slots[heads[best]]);
    if (++heads[best] == c.size()) {
      --n;
      lists[best] = lists[n];
      heads[best] = heads[n];
    }
  }
  // Bulk-append the lone survivor's tail.
  const CellSoA& c = *lists[0];
  home.hood.insert(home.hood.end(), c.slots.begin() + heads[0], c.slots.end());
}

std::uint32_t Medium::allocate_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  if (pos_x_.size() < slots_.size()) {
    pos_x_.resize(slots_.size());
    pos_y_.resize(slots_.size());
  }
  ++slots_[slot].generation;
  return slot;
}

Position Medium::slot_position(const Slot& s) const {
  return s.proxy != nullptr ? s.proxy->pos_at(sim_.now())
                            : s.radio->position();
}

void Medium::place(wire::Channel channel, std::uint32_t slot,
                   const Position& pos, bool mobile, double max_speed) {
  Slot& s = slots_[slot];
  ChannelState& state = channel_state(channel);
  s.max_speed = max_speed;
  s.safe_until = Time{0};
  grid_insert(state, slot, pos);
  s.mobile = mobile;
  if (mobile) state.mobiles.push_back(slot);
}

void Medium::unplace(wire::Channel channel, std::uint32_t slot) {
  Slot& s = slots_[slot];
  ChannelState& state = channel_state(channel);
  grid_remove(state, slot);
  if (s.mobile) {
    auto& m = state.mobiles;
    m.erase(std::remove(m.begin(), m.end(), slot), m.end());
    s.mobile = false;
  }
}

void Medium::attach(Radio& radio) {
  const std::uint32_t slot = allocate_slot();
  Slot& s = slots_[slot];
  s.radio = &radio;
  s.attach_seq = next_attach_seq_++;
  radio.medium_slot_ = slot;
  if (shard_link_ != nullptr && shard_link_->is_shadow(radio.mac())) {
    // Client radio in a sharded formation: registered here (liveness,
    // teardown) but its phy presence — grid membership — lives as a proxy
    // slot on whichever shard owns its channel stripe.
    s.shadow = true;
    shard_link_->on_shadow_attach(radio);
    return;
  }
  place(radio.channel(), slot, radio.position(), radio.config().mobile,
        radio.config().max_speed_mps);
}

void Medium::detach(Radio& radio) {
  const std::uint32_t slot = radio.medium_slot_;
  assert(slot < slots_.size() && slots_[slot].radio == &radio);
  Slot& s = slots_[slot];
  if (s.shadow) {
    if (shard_link_ != nullptr) shard_link_->on_shadow_detach(radio);
    s.shadow = false;
  } else {
    unplace(radio.channel(), slot);
  }
  s.radio = nullptr;
  // Bump on detach too: in-flight deliveries stamped with the old
  // generation die immediately, before the slot is ever reused.
  ++s.generation;
  free_slots_.push_back(slot);
}

void Medium::proxy_attach(const ShardProxyDesc& desc) {
  auto info = std::make_unique<ProxyInfo>();
  info->gid = desc.gid;
  info->channel = desc.channel;
  info->filter = desc.filter;
  info->pos_at = desc.pos_at;
  const std::uint32_t slot = allocate_slot();
  info->slot = slot;
  Slot& s = slots_[slot];
  s.proxy = info.get();
  s.attach_seq = next_attach_seq_++;
  // Clients tour routes; their proxies move with them.
  place(desc.channel, slot, info->pos_at(sim_.now()), true,
        desc.max_speed_mps);
  proxies_[desc.gid] = std::move(info);
}

void Medium::proxy_detach(std::uint64_t gid) {
  const auto it = proxies_.find(gid);
  if (it == proxies_.end()) return;  // depart raced a teardown: no-op
  const ProxyInfo& info = *it->second;
  const std::uint32_t slot = info.slot;
  Slot& s = slots_[slot];
  unplace(info.channel, slot);
  s.proxy = nullptr;
  // In-flight deliveries aimed at the departed proxy die on the stamp
  // check, exactly like deliveries to a detached radio.
  ++s.generation;
  free_slots_.push_back(slot);
  proxies_.erase(it);
}

void Medium::retune(Radio& radio, wire::Channel old_channel) {
  const std::uint32_t slot = radio.medium_slot_;
  const Slot& s = slots_[slot];
  if (s.shadow) {
    shard_link_->on_shadow_retune(radio, old_channel);
    return;
  }
  // Re-sampling the position here freshens a mobile radio's bucket and
  // position lanes for free; for static radios it is the same cell it
  // attached with.
  const bool mobile = s.mobile;
  unplace(old_channel, slot);
  place(radio.channel(), slot, radio.position(), mobile, s.max_speed);
}

Time Medium::airtime(std::size_t bytes, BitRate rate) {
  return kPlcpOverhead + rate.time_for_bytes(static_cast<double>(bytes));
}

void Medium::transmit(Radio& sender, wire::Frame frame) {
  ++perf_.frames_tx;
  frame.channel = sender.channel();
  const Position tx_pos = sender.position();
  if (shard_link_ != nullptr) {
    if (slots_[sender.medium_slot_].shadow) {
      // Client radio in a sharded formation: the fan-out happens on the
      // shard(s) owning its channel stripe, via mailbox. The transmit is
      // counted here, where the radio lives, so frames_tx stays an exact
      // sum across the formation.
      shard_link_->on_shadow_transmit(sender, std::move(frame), tx_pos,
                                      sender.config().phy_rate);
      return;
    }
    // Native transmit near a stripe cut: mirror to adjacent-stripe shards
    // (no-op sends when this shard owns the whole channel).
    shard_link_->on_native_transmit(frame.channel, tx_pos, frame,
                                    sender.config().phy_rate,
                                    sender.mac().raw());
  }
  fanout(frame.channel, tx_pos, sim_.now(), sender.config().phy_rate,
         std::move(frame), sender.medium_slot_, 0);
}

void Medium::inject_shard_fanout(wire::Channel channel, const Position& tx_pos,
                                 Time t0, BitRate rate, wire::Frame frame,
                                 std::uint64_t exclude_gid) {
  frame.channel = channel;
  fanout(channel, tx_pos, t0, rate, std::move(frame), kNoSenderSlot,
         exclude_gid);
}

void Medium::fanout(wire::Channel channel, const Position& tx_pos, Time t0,
                    BitRate rate, wire::Frame&& frame,
                    std::uint32_t sender_slot, std::uint64_t exclude_gid) {
  // Bring this channel's mobile buckets and position lanes up to this
  // timestamp first, so the 3x3 neighborhood below cannot miss a receiver
  // that drifted out of its bucket box since the last transmit. The sender
  // itself is always within the 3x3 neighborhood afterwards (mobile: at
  // most `slack` outside its bucket; static: bucketed at its fixed attach
  // position).
  ChannelState& state = channel_state(channel);
  refresh_mobile_buckets(state);
  // Nothing below changes the grid's membership, so the cached list stays
  // put while the loop walks it.
  const std::vector<std::uint32_t>& hood =
      gather_neighborhood(state.grid, tx_pos);
  const std::size_t count = hood.size();
  // A local sender is always a member of its own candidate set (a remote
  // injection has no local sender); checking before the subtraction keeps
  // the examined counter exact and guards the empty set (size - 1 would
  // wrap to ~2^64).
  const std::size_t self = sender_slot != kNoSenderSlot ? 1 : 0;
  if (count < self + 1) return;  // nobody else in earshot
  perf_.radio_candidates += count - self;

  const Time arrival = airtime(frame.size_bytes, rate);
  const double impairment = state.impairment;

  // One pooled body cell for every receiver; reception-time fields (rssi)
  // are patched per delivery just before the upcall. Each scheduled
  // delivery carries only the cell index plus a POD reception record —
  // trivially copyable, so it takes the event queue's memcpy fast path and
  // allocates nothing.
  std::uint32_t body_idx;
  if (!free_bodies_.empty()) {
    body_idx = free_bodies_.back();
    free_bodies_.pop_back();
    bodies_[body_idx].frame = std::move(frame);
  } else {
    body_idx = static_cast<std::uint32_t>(bodies_.size());
    bodies_.push_back(BodyCell{std::move(frame), 0});
  }
  const wire::Frame& body = bodies_[body_idx].frame;

  // Shared per-candidate tail: range gate, loss draws, delivery schedule.
  // `generation` comes from the caller's lane so the grid loop never
  // touches the slot registry for candidates it rejects on range.
  const auto consider = [&](std::uint32_t rx_slot, double rx_x, double rx_y,
                            std::uint32_t generation) {
    // One sqrt per candidate: range check, loss, and RSSI all reuse it.
    const double dist = distance(tx_pos, Position{rx_x, rx_y});
    if (!propagation_.in_range_at(dist)) return;
    // Interference (fault injection) is independent of the distance loss.
    const double p_prop = propagation_.loss_probability_at(dist);
    const double p_loss = 1.0 - (1.0 - p_prop) * (1.0 - impairment);

    // Unicast frames to their addressee enjoy link-layer ARQ; everyone
    // else (and all broadcast traffic) gets a single shot. A proxy applies
    // the receive filter its client's real radio declared.
    const Slot& rs = slots_[rx_slot];
    const wire::RxFilter& filter =
        rs.proxy != nullptr ? rs.proxy->filter : rs.radio->rx_filter();
    const bool addressed = filter.addrs.contains(body.dst);
    const bool arq = !body.dst.is_broadcast() && addressed;
    const int attempts_allowed = arq ? 1 + kMediumDefaultRetryLimit : 1;
    int attempt = 1;
    while (attempt <= attempts_allowed && rng_.chance(p_loss)) ++attempt;
    if (attempt > attempts_allowed) return;  // lost despite retries
    ++perf_.frames_fanout;
    // The frame reached the receiver's antenna (the draws above keep the
    // RNG stream whole); its hardware filter drops what it does not want,
    // so no delivery is scheduled (DESIGN.md §10).
    if (!addressed && !filter.overhears(body.type)) return;

    const double rssi = propagation_.rssi_dbm_at(dist);
    ++bodies_[body_idx].refs;
    // Each retry costs roughly one more airtime before the frame lands,
    // measured from the *decision* time t0 — for a local transmit that is
    // now, for a remote injection the sender's original timestamp, so the
    // two schedules agree on absolute delivery times. The lookahead
    // window guarantees t0 + airtime lands after the current drain point;
    // the max() is a deterministic safety valve, never taken in practice.
    // The receiver must still exist (radios detach from their destructor —
    // an AP can be torn down with frames in flight), be tuned and listening
    // when the frame ends; the (slot, generation) stamp checks that in O(1)
    // and cannot be fooled by a new radio at the old radio's address.
    sim_.post_at(std::max(t0 + arrival * attempt, sim_.now()),
                 [this, rx_slot, generation, body_idx, rssi] {
      const Slot& s = slots_[rx_slot];
      BodyCell& cell = bodies_[body_idx];
      if (s.generation != generation ||
          (s.radio == nullptr && s.proxy == nullptr)) {
        ++frames_dropped_at_rx_;
      } else if (s.proxy != nullptr) {
        // The loss draw happened here, where the proxy lives; the
        // listening/channel gate and the delivered/dropped count happen at
        // home, where the radio's true state lives.
        cell.frame.rssi_dbm = rssi;
        shard_link_->on_proxy_delivery(s.proxy->gid, cell.frame, rssi);
      } else if (!s.radio->listening() ||
                 s.radio->channel() != cell.frame.channel) {
        ++frames_dropped_at_rx_;
      } else {
        cell.frame.rssi_dbm = rssi;
        ++frames_delivered_;
        s.radio->deliver(cell.frame);
      }
      // Re-index: the deliver() upcall may have transmitted (growing the
      // pool); deque references stay valid but be explicit anyway.
      if (--bodies_[body_idx].refs == 0) free_bodies_.push_back(body_idx);
    });
  };

  // Skips a remote sender's own proxy: a radio must not hear itself via
  // its stand-in (cost-free in serial runs, where exclude_gid is 0).
  const auto is_excluded = [&](const Slot& s) {
    return exclude_gid != 0 && s.proxy != nullptr &&
           s.proxy->gid == exclude_gid;
  };

  // Candidate positions come from the central per-slot lanes — fresh as of
  // this timestamp's sweep and bit-identical to position() — so an
  // out-of-range candidate costs a few loads and no callback into Radio.
  // The exception is a mobile the sweep skipped on its motion-bound
  // horizon: its lanes are stale, so it is re-sampled here, on the few
  // slots that actually surface as candidates instead of the whole channel
  // roster.
  const Time now = sim_.now();
  for (const std::uint32_t rx_slot : hood) {
    if (rx_slot == sender_slot) continue;
    Slot& s = slots_[rx_slot];
    if (is_excluded(s)) continue;
    if (s.mobile && s.pos_stamp != now) {
      const Position rx_pos = slot_position(s);
      pos_x_[rx_slot] = rx_pos.x;
      pos_y_[rx_slot] = rx_pos.y;
      s.pos_stamp = now;
      if (s.max_speed > 0.0) s.safe_until = motion_horizon(s, rx_pos);
    }
    consider(rx_slot, pos_x_[rx_slot], pos_y_[rx_slot], s.generation);
  }
  // Everyone missed the loss draw: recycle the cell right away.
  if (bodies_[body_idx].refs == 0) free_bodies_.push_back(body_idx);
}

}  // namespace spider::phy
