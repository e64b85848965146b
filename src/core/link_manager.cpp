#include "core/link_manager.hpp"

#include "obs/tracer.hpp"

namespace spider::core {

LinkManager::LinkManager(DriverBase& driver, wire::Ipv4 ping_target)
    : driver_(driver),
      sim_(driver.simulator()),
      ping_target_(ping_target),
      selector_(driver.config().selector) {
  selector_.bind_tracer(&sim_);
  contexts_.resize(driver_.num_interfaces());
  for (std::size_t i = 0; i < driver_.num_interfaces(); ++i) {
    VirtualInterface& vif = driver_.iface(i);
    vif.mlme().set_callbacks({
        .on_associated = [this, i](std::uint16_t) { on_associated(i); },
        .on_failed = [this, i](mac::JoinPhase p) { on_join_failed(i, p); },
        .on_link_lost = [this, i] { on_link_dead(i); },
    });
    vif.dhcp().set_callbacks({
        .on_bound = [this, i](const net::Lease& l) { on_dhcp_bound(i, l); },
        .on_failed = [this, i] { on_dhcp_failed(i); },
        .on_lease_lost = [this, i] { on_link_dead(i); },
        .on_cache_rejected =
            [this, i] {
              // The server NAKed our remembered address: it rebooted or
              // reassigned it. Drop the entry now so sibling interfaces do
              // not keep replaying the same dead INIT-REBOOT.
              if (!driver_.config().resilient_link_policy) return;
              lease_cache_.invalidate(driver_.iface(i).bssid());
              ++cache_invalidations_;
            },
    });
    vif.prober().set_callbacks({
        .on_first_reply = [this, i] { on_e2e_confirmed(i); },
        .on_dead = [this, i] { on_link_dead(i); },
    });
  }
}

void LinkManager::start() {
  evaluate_timer_.emplace(sim_, driver_.config().evaluate_interval,
                          [this] { evaluate(); });
  evaluate_timer_->start();
  if (driver_.config().resilient_link_policy) {
    watchdog_timer_.emplace(sim_, driver_.config().watchdog_interval,
                            [this] { watchdog(); });
    watchdog_timer_->start();
  }
}

void LinkManager::watchdog() {
  // Consistency check: an interface whose LinkState says "mid-join" while
  // the underlying state machine has silently returned to idle/failed is
  // stuck — no callback is ever coming (e.g. the AP powered off between a
  // handshake step and its response). Abandon it so the interface rejoins
  // the pool instead of waiting out the full join deadline.
  for (std::size_t i = 0; i < driver_.num_interfaces(); ++i) {
    VirtualInterface& vif = driver_.iface(i);
    bool stuck = false;
    JoinOutcome outcome = JoinOutcome::kAssocFailed;
    switch (vif.link_state()) {
      case LinkState::kAssociating:
        stuck = vif.mlme().state() == mac::ClientMlme::State::kIdle;
        outcome = JoinOutcome::kAssocFailed;
        break;
      case LinkState::kDhcp:
        stuck = vif.dhcp().state() == net::DhcpClient::State::kIdle ||
                vif.dhcp().state() == net::DhcpClient::State::kFailed;
        outcome = JoinOutcome::kAssocOnly;
        break;
      case LinkState::kTesting:
        stuck = !vif.prober().running();
        outcome = JoinOutcome::kDhcpBound;
        break;
      default:
        break;  // idle and up need no supervision here
    }
    if (stuck) {
      ++watchdog_aborts_;
      finish_attempt(i, outcome, /*stays_up=*/false);
    }
  }
}

std::size_t LinkManager::links_up() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < driver_.num_interfaces(); ++i) {
    n += driver_.iface(i).up() ? 1 : 0;
  }
  return n;
}

std::unordered_set<wire::Bssid> LinkManager::in_use() const {
  std::unordered_set<wire::Bssid> used;
  for (const auto& ctx : contexts_) {
    if (!ctx.target.is_null()) used.insert(ctx.target);
  }
  return used;
}

JoinRecord& LinkManager::record_of(std::size_t vif_index) {
  return join_log_[contexts_[vif_index].record];
}

void LinkManager::evaluate() {
  auto used = in_use();
  const Time now = sim_.now();

  for (std::size_t i = 0; i < driver_.num_interfaces(); ++i) {
    VirtualInterface& vif = driver_.iface(i);

    // Abort in-flight joins whose AP has vanished from the scan cache —
    // the car has driven past it; timers alone would waste seconds.
    if (!vif.idle() && !vif.up() &&
        !driver_.scanner().in_range(contexts_[i].target)) {
      const JoinOutcome outcome =
          vif.link_state() == LinkState::kAssociating ? JoinOutcome::kAssocFailed
          : vif.link_state() == LinkState::kDhcp      ? JoinOutcome::kAssocOnly
                                                      : JoinOutcome::kDhcpBound;
      finish_attempt(i, outcome, /*stays_up=*/false);
      continue;
    }

    if (!vif.idle()) continue;

    // Candidate APs: fresh observations on scheduled channels, not already
    // claimed by a sibling interface, not blacklisted.
    std::vector<mac::ApObservation> candidates;
    for (const auto& obs : driver_.scanner().current()) {
      if (driver_.mode().includes(obs.channel)) candidates.push_back(obs);
    }
    if (auto choice = selector_.select(candidates, used, now)) {
      begin_join(i, *choice);
      used.insert(choice->bssid);  // siblings must not claim the same AP
    }
  }
}

void LinkManager::begin_join(std::size_t vif_index,
                             const mac::ApObservation& obs) {
  VirtualInterface& vif = driver_.iface(vif_index);
  VifContext& ctx = contexts_[vif_index];

  ctx.target = obs.bssid;
  JoinRecord record;
  record.bssid = obs.bssid;
  record.channel = obs.channel;
  record.started = sim_.now();
  ctx.record = join_log_.size();
  join_log_.push_back(record);

  SPIDER_TRACE(sim_, .kind = spider::obs::TraceKind::kJoinStart,
               .channel = static_cast<std::int16_t>(obs.channel),
               .track = spider::obs::track::client(vif_index),
               .id = obs.bssid.raw());

  vif.set_link_state(LinkState::kAssociating);
  vif.mlme().start_join(obs.bssid, obs.channel);

  ctx.join_deadline.cancel();
  ctx.join_deadline = sim_.schedule(driver_.config().join_deadline,
                                    [this, vif_index] { on_join_deadline(vif_index); });
}

void LinkManager::on_associated(std::size_t vif_index) {
  VirtualInterface& vif = driver_.iface(vif_index);
  if (vif.link_state() != LinkState::kAssociating) return;
  record_of(vif_index).assoc_delay = sim_.now() - record_of(vif_index).started;

  vif.set_link_state(LinkState::kDhcp);
  std::optional<net::Lease> cached;
  if (driver_.config().use_lease_cache) {
    cached = lease_cache_.find(vif.bssid(), sim_.now());
  }
  record_of(vif_index).used_lease_cache = cached.has_value();
  vif.dhcp().start(cached);
}

void LinkManager::on_join_failed(std::size_t vif_index, mac::JoinPhase) {
  finish_attempt(vif_index, JoinOutcome::kAssocFailed, /*stays_up=*/false);
}

void LinkManager::on_dhcp_bound(std::size_t vif_index, const net::Lease& lease) {
  VirtualInterface& vif = driver_.iface(vif_index);
  if (vif.link_state() != LinkState::kDhcp) return;
  record_of(vif_index).dhcp_delay = sim_.now() - record_of(vif_index).started;

  vif.set_lease(lease);
  lease_cache_.store(vif.bssid(), lease);

  // Rare IP collision across interfaces: keep the most recent assignment
  // (§3.2.2) and tear the older interface down.
  for (std::size_t j = 0; j < driver_.num_interfaces(); ++j) {
    if (j != vif_index && driver_.iface(j).ip() == lease.ip &&
        !driver_.iface(j).idle()) {
      finish_attempt(j, JoinOutcome::kDhcpBound, /*stays_up=*/false);
    }
  }

  vif.set_link_state(LinkState::kTesting);
  const wire::Ipv4 target =
      ping_target_.is_null() ? lease.gateway : ping_target_;
  vif.prober().start(lease.ip, target);

  VifContext& ctx = contexts_[vif_index];
  ctx.e2e_deadline.cancel();
  ctx.e2e_deadline = sim_.schedule(driver_.config().e2e_timeout,
                                   [this, vif_index] { on_e2e_timeout(vif_index); });
}

void LinkManager::on_dhcp_failed(std::size_t vif_index) {
  VirtualInterface& vif = driver_.iface(vif_index);
  if (vif.link_state() != LinkState::kDhcp) return;
  if (driver_.config().resilient_link_policy &&
      record_of(vif_index).used_lease_cache) {
    // An INIT-REBOOT attempt burned its whole retransmit budget without
    // even a NAK (rebooted gateways often just stay silent). The cached
    // lease is evidence against itself — drop it so the next attempt goes
    // straight to DISCOVER.
    lease_cache_.invalidate(vif.bssid());
    ++cache_invalidations_;
  }
  finish_attempt(vif_index, JoinOutcome::kAssocOnly, /*stays_up=*/false);
}

void LinkManager::on_e2e_confirmed(std::size_t vif_index) {
  VirtualInterface& vif = driver_.iface(vif_index);
  if (vif.link_state() != LinkState::kTesting) return;
  contexts_[vif_index].e2e_deadline.cancel();
  contexts_[vif_index].join_deadline.cancel();
  record_of(vif_index).e2e_delay = sim_.now() - record_of(vif_index).started;
  finish_attempt(vif_index, JoinOutcome::kEndToEnd, /*stays_up=*/true);
}

void LinkManager::on_e2e_timeout(std::size_t vif_index) {
  VirtualInterface& vif = driver_.iface(vif_index);
  if (vif.link_state() != LinkState::kTesting) return;
  finish_attempt(vif_index, JoinOutcome::kDhcpBound, /*stays_up=*/false);
}

void LinkManager::on_join_deadline(std::size_t vif_index) {
  VirtualInterface& vif = driver_.iface(vif_index);
  switch (vif.link_state()) {
    case LinkState::kAssociating:
      finish_attempt(vif_index, JoinOutcome::kAssocFailed, false);
      return;
    case LinkState::kDhcp:
      finish_attempt(vif_index, JoinOutcome::kAssocOnly, false);
      return;
    case LinkState::kTesting:
      finish_attempt(vif_index, JoinOutcome::kDhcpBound, false);
      return;
    default:
      return;  // already up or idle
  }
}

void LinkManager::on_link_dead(std::size_t vif_index) {
  VirtualInterface& vif = driver_.iface(vif_index);
  if (vif.link_state() == LinkState::kUp) {
    // The join itself succeeded and was already recorded; this is a later
    // loss (drove out of range). Tear down and re-enter the pool.
    const Time uptime = sim_.now() - contexts_[vif_index].up_since;
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kLinkDown,
                 .channel = static_cast<std::int16_t>(vif.channel()),
                 .track = obs::track::client(vif_index),
                 .id = vif.bssid().raw(), .value = to_seconds(uptime));
    if (callbacks_.on_link_down) callbacks_.on_link_down(vif);
    const bool resilient = driver_.config().resilient_link_policy;
    if (resilient) {
      if (uptime < driver_.config().flap_uptime_threshold) {
        // Came up only to die straight away: that is a flapping AP, not a
        // drive-past. Penalise beyond the ordinary blacklist.
        selector_.record_flap(vif.bssid(), sim_.now());
      }
    }
    selector_.blacklist(vif.bssid(), sim_.now(), /*escalate=*/resilient);
    vif.prober().stop();
    vif.dhcp().abort();  // out of range: a RELEASE could not be delivered
    vif.mlme().disassociate();
    vif.set_lease(std::nullopt);
    vif.set_link_state(LinkState::kIdle);
    contexts_[vif_index].target = wire::Bssid();
  }
}

void LinkManager::finish_attempt(std::size_t vif_index, JoinOutcome outcome,
                                 bool stays_up) {
  VirtualInterface& vif = driver_.iface(vif_index);
  VifContext& ctx = contexts_[vif_index];

  JoinRecord& record = record_of(vif_index);
  if (!record.finished) {
    record.finished = true;
    record.outcome = outcome;
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kJoinOutcome,
                 .aux = static_cast<std::uint8_t>(outcome),
                 .channel = static_cast<std::int16_t>(record.channel),
                 .track = obs::track::client(vif_index),
                 .id = ctx.target.raw(),
                 .value = to_seconds(sim_.now() - record.started));
    selector_.record_outcome(ctx.target, outcome);
  }

  if (stays_up) {
    vif.set_link_state(LinkState::kUp);
    ctx.up_since = sim_.now();
    SPIDER_TRACE(sim_, .kind = obs::TraceKind::kLinkUp,
                 .channel = static_cast<std::int16_t>(vif.channel()),
                 .track = obs::track::client(vif_index),
                 .id = vif.bssid().raw());
    if (callbacks_.on_link_up) callbacks_.on_link_up(vif);
    return;
  }

  ctx.join_deadline.cancel();
  ctx.e2e_deadline.cancel();
  selector_.blacklist(ctx.target, sim_.now(),
                      /*escalate=*/driver_.config().resilient_link_policy);
  vif.prober().stop();
  vif.dhcp().release();  // polite: hand unused addresses back
  vif.mlme().disassociate();
  vif.set_lease(std::nullopt);
  vif.set_link_state(LinkState::kIdle);
  ctx.target = wire::Bssid();
}

}  // namespace spider::core
