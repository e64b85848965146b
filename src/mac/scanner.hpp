#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"
#include "wire/frame.hpp"

namespace spider::mac {

/// A recently-heard access point.
struct ApObservation {
  wire::Bssid bssid;
  std::string ssid;
  wire::Channel channel = 0;
  double rssi_dbm = -100.0;  ///< EWMA over received beacons
  Time first_seen{0};
  Time last_seen{0};
  int frames_heard = 0;
};

struct ScannerConfig {
  /// Observations older than this no longer count as "in range". At
  /// vehicular speed a 3 s silence means the AP is likely behind us.
  Time expiry = sec(3);
  /// Interval between broadcast probe requests on the active channel;
  /// zero disables active scanning (purely opportunistic reception).
  Time probe_interval = msec(500);
  double rssi_ewma_alpha = 0.5;
  /// APs weaker than this are not reported (paper: "sufficient signal
  /// strength" gate before an AP is considered for association). The
  /// default corresponds to ~80 m in the propagation model — the edge of
  /// the low-loss zone; attempting joins in the lossy cell fringe wastes
  /// the precious first seconds of an encounter.
  double min_rssi_dbm = -77.0;
};

/// Opportunistic scanner (§3.2.1): passively collects beacons and probe
/// responses overheard on whatever channel the card currently occupies,
/// without interrupting foreground transfers, and can periodically fire a
/// broadcast probe request. Maintains the freshness-bounded AP cache that
/// drives Spider's AP selection.
class Scanner {
 public:
  /// Callback that emits a broadcast probe request; wired to the driver.
  using ProbeFn = std::function<void()>;

  Scanner(sim::Simulator& simulator, ScannerConfig config);

  void set_prober(ProbeFn prober);
  void start();  ///< begins periodic active probing (if configured)
  void stop();

  /// Feed every received frame; beacons/probe responses update the cache.
  void on_frame(const wire::Frame& frame);

  /// The frame types on_frame learns from, whoever they are addressed to:
  /// what a driver's receive filter must overhear for its scanner.
  static constexpr wire::FrameTypeMask kHeardTypes =
      wire::frame_type_bit(wire::FrameType::kBeacon) |
      wire::frame_type_bit(wire::FrameType::kProbeResponse);

  /// All fresh observations (optionally restricted to one channel),
  /// strongest RSSI first.
  std::vector<ApObservation> current() const;
  std::vector<ApObservation> current_on(wire::Channel channel) const;
  std::optional<ApObservation> find(wire::Bssid bssid) const;

  /// True if the AP has been heard within the expiry window.
  bool in_range(wire::Bssid bssid) const;

  std::size_t cache_size() const { return cache_.size(); }

 private:
  bool fresh(const ApObservation& obs) const;

  sim::Simulator& sim_;
  ScannerConfig config_;
  ProbeFn prober_;
  std::unordered_map<wire::Bssid, ApObservation> cache_;
  std::optional<sim::PeriodicTimer> probe_timer_;
};

}  // namespace spider::mac
