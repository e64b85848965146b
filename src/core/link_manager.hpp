#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/ap_selector.hpp"
#include "core/driver_base.hpp"
#include "core/virtual_iface.hpp"
#include "net/dhcp_client.hpp"
#include "sim/simulator.hpp"

namespace spider::core {

/// One join attempt, as logged for the evaluation figures. All timestamps
/// are durations from the attempt start.
struct JoinRecord {
  wire::Bssid bssid;
  wire::Channel channel = 0;
  Time started{0};
  std::optional<Time> assoc_delay;   ///< Fig. 5's "time to associate"
  std::optional<Time> dhcp_delay;    ///< from attempt start to lease (Fig. 14)
  std::optional<Time> e2e_delay;     ///< full join incl. connectivity test
  JoinOutcome outcome = JoinOutcome::kAssocFailed;
  bool finished = false;
  bool used_lease_cache = false;
};

/// Spider's user-space link management module (§3.2.2): applies the AP
/// selection policy across the interface pool, drives each interface
/// through association -> DHCP -> end-to-end test, watches liveness with
/// the ping prober, and re-targets interfaces as APs come and go.
class LinkManager {
 public:
  struct Callbacks {
    std::function<void(VirtualInterface&)> on_link_up;
    std::function<void(VirtualInterface&)> on_link_down;
  };

  /// `ping_target`: end-to-end liveness destination; a null address makes
  /// the prober fall back to the interface's gateway.
  LinkManager(DriverBase& driver, wire::Ipv4 ping_target);

  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Begins the policy loop (the driver must also be started).
  void start();

  ApSelector& selector() { return selector_; }
  const std::vector<JoinRecord>& join_log() const { return join_log_; }

  std::size_t links_up();
  std::uint64_t joins_attempted() const { return join_log_.size(); }

  // Resilience counters (hardened policy only).
  std::uint64_t watchdog_aborts() const { return watchdog_aborts_; }
  std::uint64_t cache_invalidations() const { return cache_invalidations_; }

 private:
  struct VifContext {
    wire::Bssid target;
    std::size_t record = 0;  ///< index into join_log_
    Time up_since{0};        ///< when the link last reached kUp
    sim::EventHandle join_deadline;
    sim::EventHandle e2e_deadline;
  };

  void evaluate();
  void watchdog();
  void begin_join(std::size_t vif_index, const mac::ApObservation& obs);
  void on_associated(std::size_t vif_index);
  void on_join_failed(std::size_t vif_index, mac::JoinPhase phase);
  void on_dhcp_bound(std::size_t vif_index, const net::Lease& lease);
  void on_dhcp_failed(std::size_t vif_index);
  void on_e2e_confirmed(std::size_t vif_index);
  void on_e2e_timeout(std::size_t vif_index);
  void on_link_dead(std::size_t vif_index);
  void on_join_deadline(std::size_t vif_index);

  /// Terminates the current attempt (or live link), records the outcome,
  /// blacklists on failure and returns the interface to idle.
  void finish_attempt(std::size_t vif_index, JoinOutcome outcome, bool stays_up);

  std::unordered_set<wire::Bssid> in_use() const;
  JoinRecord& record_of(std::size_t vif_index);

  DriverBase& driver_;
  sim::Simulator& sim_;
  wire::Ipv4 ping_target_;
  ApSelector selector_;
  net::LeaseCache lease_cache_;
  Callbacks callbacks_;
  std::vector<VifContext> contexts_;
  std::vector<JoinRecord> join_log_;
  std::optional<sim::PeriodicTimer> evaluate_timer_;
  std::optional<sim::PeriodicTimer> watchdog_timer_;
  std::uint64_t watchdog_aborts_ = 0;
  std::uint64_t cache_invalidations_ = 0;
};

}  // namespace spider::core
