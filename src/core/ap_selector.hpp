#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "mac/scanner.hpp"
#include "util/time.hpp"

namespace spider::sim {
class Simulator;
}  // namespace spider::sim

namespace spider::core {

/// Terminal outcome of one join attempt, ordered by progress.
enum class JoinOutcome { kAssocFailed, kAssocOnly, kDhcpBound, kEndToEnd };
const char* to_string(JoinOutcome o);

/// Spider's utility-driven AP selection (§3.1, Design Choice 2).
///
/// Choosing the optimal AP subset is NP-hard (Appendix A), so Spider keeps
/// a per-BSSID utility: a recency-weighted average of how far past join
/// attempts progressed (0 for association failures, va/vb/vc beyond).
/// Unseen APs bootstrap at the maximum utility so each gets at least one
/// try; ties break on signal strength; failed APs are blacklisted briefly.
class ApSelector {
 public:
  explicit ApSelector(SelectorConfig config) : config_(config) {}

  /// The selector has no simulator of its own; its owner (LinkManager)
  /// lends one so utility updates and blacklist decisions reach the flight
  /// recorder. Null (the default) keeps the selector silent.
  void bind_tracer(sim::Simulator* simulator) { trace_sim_ = simulator; }

  /// Folds a finished attempt into the AP's utility. A full join also
  /// clears the AP's failure streak and flap count.
  void record_outcome(wire::Bssid bssid, JoinOutcome outcome);

  /// Sidelines the AP. With `escalate` each consecutive failure grows the
  /// duration geometrically (base × backoff^streak, capped; the streak
  /// decays one step per `blacklist_decay` of quiet). Without it the flat
  /// legacy behaviour applies: always exactly `blacklist_duration`.
  void blacklist(wire::Bssid bssid, Time now, bool escalate = true);
  bool blacklisted(wire::Bssid bssid, Time now) const;

  /// Notes a short-uptime link death. Flaps within `flap_window` of each
  /// other stack an extra `flap_penalty` per flap onto the blacklist.
  void record_flap(wire::Bssid bssid, Time now);

  // Introspection for tests and metrics.
  int failure_streak(wire::Bssid bssid) const;
  int flap_count(wire::Bssid bssid) const;
  Time blacklisted_until(wire::Bssid bssid) const;

  /// Current utility (bootstrap value for unknown APs).
  double utility(wire::Bssid bssid) const;

  /// Picks the best join candidate: highest utility, RSSI tiebreak,
  /// skipping in-use and blacklisted APs.
  std::optional<mac::ApObservation> select(
      const std::vector<mac::ApObservation>& candidates,
      const std::unordered_set<wire::Bssid>& in_use, Time now) const;

 private:
  struct Penalty {
    Time until{0};         ///< blacklisted while now < until
    int streak = 0;        ///< consecutive failures feeding the backoff
    Time last_failure{0};  ///< for streak decay
    int flaps = 0;         ///< flaps inside the current window
    Time last_flap{0};
  };

  double outcome_value(JoinOutcome outcome) const;

  SelectorConfig config_;
  sim::Simulator* trace_sim_ = nullptr;
  std::unordered_map<wire::Bssid, double> utilities_;
  std::unordered_map<wire::Bssid, Penalty> penalties_;
};

}  // namespace spider::core
