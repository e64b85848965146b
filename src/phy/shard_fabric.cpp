#include "phy/shard_fabric.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <utility>

#include "phy/medium.hpp"
#include "phy/radio.hpp"

namespace spider::phy {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fixed-point owner for channels no AP uses (a scanner probing an empty
/// channel still needs a deterministic place for its proxy to live).
int fallback_owner(wire::Channel c, int shards) {
  const auto h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)) *
                 0x9E3779B97F4A7C15ull;
  return static_cast<int>((h >> 33) % static_cast<std::uint64_t>(shards));
}

}  // namespace

int ShardPartition::owner(wire::Channel c, double x) const {
  const auto it = stripes.find(c);
  if (it == stripes.end()) return fallback_owner(c, shards);
  for (const ShardStripe& s : it->second) {
    if (x < s.x1) return s.shard;
  }
  return it->second.back().shard;  // unreachable: last stripe is +inf
}

int ShardPartition::targets(wire::Channel c, double x, int* out) const {
  const auto it = stripes.find(c);
  if (it == stripes.end()) {
    out[0] = fallback_owner(c, shards);
    return 1;
  }
  int n = 0;
  double x0 = -kInf;
  for (const ShardStripe& s : it->second) {
    if (x + margin_m >= x0 && x - margin_m < s.x1) {
      bool dup = false;
      for (int j = 0; j < n; ++j) dup = dup || out[j] == s.shard;
      if (!dup) out[n++] = s.shard;
    }
    x0 = s.x1;
  }
  return n;
}

int ShardPartition::stripe_owners(wire::Channel c, int* out) const {
  const auto it = stripes.find(c);
  if (it == stripes.end()) {
    out[0] = fallback_owner(c, shards);
    return 1;
  }
  int n = 0;
  for (const ShardStripe& s : it->second) {
    bool dup = false;
    for (int j = 0; j < n; ++j) dup = dup || out[j] == s.shard;
    if (!dup) out[n++] = s.shard;
  }
  return n;
}

double ShardPartition::cut_distance(wire::Channel c, double x) const {
  const auto it = stripes.find(c);
  if (it == stripes.end()) return kInf;
  double x0 = -kInf;
  for (const ShardStripe& s : it->second) {
    if (x < s.x1) return std::min(x - x0, s.x1 - x);
    x0 = s.x1;
  }
  return kInf;  // unreachable: last stripe is +inf
}

bool ShardPartition::spatial() const {
  for (const auto& [c, v] : stripes) {
    if (v.size() > 1) return true;
  }
  return false;
}

ShardPartition build_shard_partition(
    const std::vector<std::pair<wire::Channel, double>>& ap_sites, int shards,
    double range_m) {
  ShardPartition p;
  p.shards = std::max(1, shards);
  p.margin_m = range_m + kShardSlopM;

  // Group AP x-coordinates per channel, in deterministic channel order.
  std::map<wire::Channel, std::vector<double>> xs;
  for (const auto& [c, x] : ap_sites) xs[c].push_back(x);

  if (p.shards == 1) {
    for (const auto& [c, v] : xs) p.stripes[c] = {{kInf, 0}};
    return p;
  }

  // Cut each channel with enough APs into `shards` equal-count stripes —
  // small pieces pack far tighter than whole channels (three channels on
  // two shards would otherwise load 2:1). Channels too small to split stay
  // whole; their piece is cheap to place anywhere.
  struct Piece {
    wire::Channel channel;
    std::size_t index;  ///< stripe index within the channel
    std::size_t count;
  };
  std::vector<Piece> pieces;
  for (auto& [c, v] : xs) {
    std::sort(v.begin(), v.end());
    const std::size_t count = v.size();
    std::size_t k = 1;
    if (count >= 2 * static_cast<std::size_t>(p.shards)) {
      k = static_cast<std::size_t>(p.shards);
    }
    std::vector<ShardStripe>& sv = p.stripes[c];
    double prev_cut = -kInf;
    std::size_t begin = 0;
    for (std::size_t i = 1; i < k; ++i) {
      const std::size_t at = i * count / k;  // first element of stripe i
      const double cut = (v[at - 1] + v[at]) / 2.0;
      if (cut <= prev_cut) continue;  // duplicate x positions: merge pieces
      pieces.push_back({c, sv.size(), at - begin});
      sv.push_back({cut, 0});
      prev_cut = cut;
      begin = at;
    }
    pieces.push_back({c, sv.size(), count - begin});
    sv.push_back({kInf, 0});
  }

  // LPT greedy: heaviest piece first onto the least-loaded shard. Stable
  // sort keeps equal-count ties in channel/stripe order — deterministic.
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) { return a.count > b.count; });
  std::vector<std::size_t> load(static_cast<std::size_t>(p.shards), 0);
  for (const Piece& piece : pieces) {
    int best = 0;
    for (int s = 1; s < p.shards; ++s) {
      if (load[static_cast<std::size_t>(s)] <
          load[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    load[static_cast<std::size_t>(best)] += piece.count;
    p.stripes[piece.channel][piece.index].shard = best;
  }
  return p;
}

// ---------------------------------------------------------------------------

ShardFabric::ShardFabric(sim::ShardedSimulator& bus,
                         std::vector<Medium*> mediums, ShardPartition partition,
                         std::function<bool(wire::MacAddress)> is_client)
    : bus_(bus),
      mediums_(std::move(mediums)),
      partition_(std::move(partition)),
      is_client_(std::move(is_client)),
      homed_(mediums_.size()) {
  assert(static_cast<int>(mediums_.size()) == partition_.shards);
  ports_.resize(mediums_.size());
  for (std::size_t s = 0; s < mediums_.size(); ++s) {
    ports_[s].fab = this;
    ports_[s].shard = static_cast<int>(s);
    mediums_[s]->set_shard_link(&ports_[s]);
  }
  if (partition_.spatial()) {
    for (int s = 0; s < partition_.shards; ++s) {
      bus_.set_window_hook(s, [this, s] { migrate_sweep(s); });
    }
  }
}

ShardFabric::~ShardFabric() {
  for (Medium* m : mediums_) m->set_shard_link(nullptr);
}

void ShardFabric::register_client(int home, Radio& radio,
                                  std::function<Position(Time)> pos_at,
                                  double max_speed_mps) {
  const std::uint64_t gid = radio.mac().raw();
  ClientInfo& info = clients_[gid];  // created at attach; tolerate either order
  info.radio = &radio;
  info.home = home;
  info.pos_at = std::move(pos_at);
  info.max_speed = max_speed_mps;
  info.filter = radio.rx_filter();
  homed_[static_cast<std::size_t>(home)].push_back({gid, &info});

  // Initial placement: the owner of the radio's boot channel stripe at its
  // starting position. Sent from the coordinating thread pre-run; applied
  // by drain_initial.
  const wire::Channel ch = radio.channel();
  const int owner = partition_.owner(ch, info.pos_at(Time{0}).x);
  move_proxy(home, info, gid, ch, owner);
}

bool ShardFabric::Port::is_shadow(wire::MacAddress mac) const {
  return fab->is_client_(mac);
}

void ShardFabric::Port::on_shadow_attach(Radio& radio) {
  // May run before register_client fills the entry in (Radio constructors
  // attach eagerly); just record the pointer.
  fab->clients_[radio.mac().raw()].radio = &radio;
}

void ShardFabric::Port::on_shadow_detach(Radio& radio) {
  // Teardown (after the workers joined and drain_final ran): nothing to
  // send — the formation is being dismantled wholesale.
  const auto it = fab->clients_.find(radio.mac().raw());
  if (it != fab->clients_.end()) it->second.radio = nullptr;
}

int ShardFabric::route_targets(int from, bool skip_self, wire::Channel channel,
                               double x, int* out) const {
  int all[kMaxShards];
  const int n = partition_.targets(channel, x, all);
  int kept = 0;
  for (int i = 0; i < n; ++i) {
    if (!(skip_self && all[i] == from)) out[kept++] = all[i];
  }
  return kept;
}

void ShardFabric::send_fanout(int from, int to, wire::Channel channel,
                              const Position& tx_pos, Time t0, BitRate rate,
                              wire::Frame frame, std::uint64_t exclude_gid) {
  Medium* m = mediums_[static_cast<std::size_t>(to)];
  auto apply = [m, channel, tx_pos, t0, rate, frame = std::move(frame),
                exclude_gid]() mutable {
    m->inject_shard_fanout(channel, tx_pos, t0, rate, std::move(frame),
                           exclude_gid);
  };
  static_assert(sim::ShardedSimulator::Thunk::fits_inline<decltype(apply)>,
                "the fan-out message must not allocate");
  bus_.send(from, to, std::move(apply));
}

void ShardFabric::Port::on_shadow_transmit(Radio& sender, wire::Frame&& frame,
                                           const Position& tx_pos,
                                           BitRate rate) {
  // A shadow has no local phy presence: even its home shard's medium (when
  // it owns the stripe) receives the frame through the mailbox, so shard
  // placement never changes which path a frame takes. The sender's own
  // proxy is excluded by gid, mirroring the local loop's sender skip. The
  // frame is ours: every target but the last gets a copy, the last takes
  // it.
  ShardFabric& f = *fab;
  int out[kMaxShards];
  const int n =
      f.route_targets(shard, /*skip_self=*/false, sender.channel(), tx_pos.x,
                      out);
  const Time now =
      f.mediums_[static_cast<std::size_t>(shard)]->simulator().now();
  for (int i = 0; i < n; ++i) {
    f.send_fanout(shard, out[i], sender.channel(), tx_pos, now, rate,
                  i + 1 < n ? wire::Frame(frame) : std::move(frame),
                  sender.mac().raw());
  }
}

void ShardFabric::Port::on_native_transmit(wire::Channel channel,
                                           const Position& tx_pos,
                                           const wire::Frame& frame,
                                           BitRate rate,
                                           std::uint64_t sender_gid) {
  // The local medium already fanned this frame out; only stripes of the
  // channel owned by *other* shards within the export margin need a mirror.
  // Single-stripe channels (the common case) fall straight through with
  // zero sends and no copy.
  ShardFabric& f = *fab;
  int out[kMaxShards];
  const int n =
      f.route_targets(shard, /*skip_self=*/true, channel, tx_pos.x, out);
  if (n == 0) return;
  const Time now =
      f.mediums_[static_cast<std::size_t>(shard)]->simulator().now();
  for (int i = 0; i < n; ++i) {
    f.send_fanout(shard, out[i], channel, tx_pos, now, rate, frame,
                  sender_gid);
  }
}

void ShardFabric::Port::on_shadow_retune(Radio& radio,
                                         wire::Channel old_channel) {
  // Home shard thread, at retune completion (the radio already reports the
  // new channel). Frames still in flight toward the old proxy are dropped
  // at the home gate by the channel check — the same frames a serial run
  // drops at delivery time.
  (void)old_channel;
  ShardFabric& f = *fab;
  const std::uint64_t gid = radio.mac().raw();
  ClientInfo& info = f.clients_.at(gid);
  const wire::Channel ch = radio.channel();
  const int owner = f.partition_.owner(ch, radio.position().x);
  f.move_proxy(shard, info, gid, ch, owner);
}

void ShardFabric::move_proxy(int home, ClientInfo& info, std::uint64_t gid,
                             wire::Channel channel, int new_shard) {
  if (info.placed) {
    Medium* old_m = mediums_[static_cast<std::size_t>(info.cur_shard)];
    bus_.send(home, info.cur_shard, [old_m, gid] { old_m->proxy_detach(gid); });
  }
  ShardProxyDesc desc;
  desc.gid = gid;
  desc.channel = channel;
  desc.filter = info.filter;
  desc.pos_at = info.pos_at;
  desc.max_speed_mps = info.max_speed;
  Medium* new_m = mediums_[static_cast<std::size_t>(new_shard)];
  bus_.send(home, new_shard,
            [new_m, desc = std::move(desc)] { new_m->proxy_attach(desc); });
  info.cur_shard = new_shard;
  info.cur_channel = channel;
  info.placed = true;
  info.next_sweep = Time{0};
}

void ShardFabric::Port::on_proxy_delivery(std::uint64_t gid,
                                          const wire::Frame& frame,
                                          double rssi) {
  (void)rssi;  // already stamped into frame.rssi_dbm by the medium
  ShardFabric& f = *fab;
  const auto it = f.clients_.find(gid);
  if (it == f.clients_.end()) return;  // stale proxy of a torn-down client
  ShardFabric* fp = fab;
  const ClientInfo* info = &it->second;  // node-based map: stable address
  auto apply = [fp, info, frame = wire::Frame(frame)] {
    fp->deliver_home(*info, frame);
  };
  static_assert(sim::ShardedSimulator::Thunk::fits_inline<decltype(apply)>,
                "the delivery message must not allocate");
  f.bus_.send(shard, info->home, std::move(apply));
}

void ShardFabric::deliver_home(const ClientInfo& info,
                               const wire::Frame& frame) {
  if (info.radio == nullptr) return;
  Radio& r = *info.radio;
  Medium& m = *mediums_[static_cast<std::size_t>(info.home)];
  // The owner drew the loss; the home radio applies its live state — deaf
  // mid-reset or already retuned elsewhere means a drop, exactly the
  // serial delivery-time gate.
  const bool ok = r.listening() && r.channel() == frame.channel;
  m.note_forwarded_delivery(ok);
  if (ok) r.deliver(frame);
}

void ShardFabric::migrate_sweep(int shard) {
  // Positions are computed in floating point; a client whose motion bound
  // comes this close to a cut is sampled every window.
  constexpr double kBoundSlackM = 0.01;
  const Time now =
      mediums_[static_cast<std::size_t>(shard)]->simulator().now();
  std::uint64_t moved = 0;
  for (auto& [gid, info] : homed_[static_cast<std::size_t>(shard)]) {
    if (!info->placed || info->radio == nullptr || now < info->next_sweep) {
      continue;
    }
    const double x = info->pos_at(now).x;
    const int owner = partition_.owner(info->cur_channel, x);
    if (owner != info->cur_shard) {
      move_proxy(shard, *info, gid, info->cur_channel, owner);
      ++moved;
      continue;
    }
    // Until it has covered the distance to the nearer cut of its stripe,
    // the client cannot change owner.
    const double room =
        partition_.cut_distance(info->cur_channel, x) - kBoundSlackM;
    if (room <= 0.0) continue;
    const double dt_us = info->max_speed > 0.0
                             ? room / info->max_speed * 1e6
                             : std::numeric_limits<double>::infinity();
    info->next_sweep =
        dt_us >= static_cast<double>((Time::max() - now).count())
            ? Time::max()
            : now + Time{static_cast<Time::rep>(dt_us)};
  }
  if (moved != 0) migrations_.fetch_add(moved, std::memory_order_relaxed);
}

}  // namespace spider::phy
