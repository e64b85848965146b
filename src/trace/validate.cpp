#include <cmath>
#include <string>
#include <vector>

#include "phy/shard_fabric.hpp"
#include "trace/error.hpp"
#include "trace/experiment.hpp"

namespace spider::trace {

const char* to_string(RunErrorKind kind) {
  switch (kind) {
    case RunErrorKind::kInvalidConfig: return "invalid-config";
    case RunErrorKind::kDeadlineExceeded: return "deadline-exceeded";
    case RunErrorKind::kCancelled: return "cancelled";
    case RunErrorKind::kInternal: return "internal";
  }
  return "?";
}

std::string join_issues(const std::vector<ConfigIssue>& issues) {
  std::string out;
  for (const ConfigIssue& issue : issues) {
    if (!out.empty()) out += "; ";
    out += issue.field + ": " + issue.message;
  }
  return out;
}

namespace {

void check_channel_mix(
    const std::vector<std::pair<wire::Channel, double>>& weights,
    const std::string& prefix, std::vector<ConfigIssue>& issues) {
  if (weights.empty()) {
    issues.push_back({prefix + ".channel_weights", "channel mix is empty"});
    return;
  }
  double total = 0.0;
  for (const auto& [channel, weight] : weights) {
    if (weight < 0.0 || !std::isfinite(weight)) {
      issues.push_back({prefix + ".channel_weights",
                        "weight for channel " + std::to_string(channel) +
                            " must be finite and >= 0"});
      return;
    }
    total += weight;
  }
  if (total <= 0.0) {
    issues.push_back(
        {prefix + ".channel_weights", "channel weights sum to zero"});
  }
}

void check_backhaul(BitRate lo, BitRate hi, const std::string& prefix,
                    std::vector<ConfigIssue>& issues) {
  if (lo.bps <= 0.0) {
    issues.push_back({prefix + ".backhaul_min", "backhaul rate must be > 0"});
  }
  if (hi.bps < lo.bps) {
    issues.push_back(
        {prefix + ".backhaul_max", "backhaul_max below backhaul_min"});
  }
}

void check_fraction(double v, const std::string& field,
                    std::vector<ConfigIssue>& issues) {
  if (v < 0.0 || v > 1.0 || !std::isfinite(v)) {
    issues.push_back({field, "must lie in [0, 1]"});
  }
}

}  // namespace

std::vector<ConfigIssue> ScenarioConfig::validate() const {
  std::vector<ConfigIssue> issues;

  if (duration <= Time{0}) {
    issues.push_back({"duration", "must be positive"});
  }
  if (!(speed_mps >= 0.0) || !std::isfinite(speed_mps)) {
    issues.push_back({"speed_mps", "must be finite and >= 0"});
  }
  if (client_mix.empty()) {
    if (clients <= 0) {
      issues.push_back({"clients", "must be >= 1"});
    }
  } else {
    // A non-empty mix replaces `clients` entirely, so its slices carry the
    // population checks: every slice must contribute and every knob must be
    // a usable multiplier/fraction.
    for (std::size_t i = 0; i < client_mix.size(); ++i) {
      const std::string prefix = "client_mix[" + std::to_string(i) + "]";
      const ClientMixEntry& entry = client_mix[i];
      if (entry.count <= 0) {
        issues.push_back({prefix + ".count", "must be >= 1"});
      }
      const ClientProfile& p = entry.profile;
      if (!(p.scan_aggressiveness > 0.0) ||
          !std::isfinite(p.scan_aggressiveness)) {
        issues.push_back(
            {prefix + ".scan_aggressiveness", "must be finite and > 0"});
      }
      if (!(p.ap_stickiness > 0.0) || !std::isfinite(p.ap_stickiness)) {
        issues.push_back({prefix + ".ap_stickiness", "must be finite and > 0"});
      }
      if (p.psm_duty < 0.0 || p.psm_duty > 1.0 || !std::isfinite(p.psm_duty)) {
        issues.push_back({prefix + ".psm_duty", "must lie in [0, 1]"});
      }
    }
  }
  if (metrics_bin <= Time{0}) {
    issues.push_back({"metrics_bin", "must be positive"});
  }
  if (backhaul_delay < Time{0}) {
    issues.push_back({"backhaul_delay", "must be >= 0"});
  }

  if (!(propagation.range_m > 0.0)) {
    issues.push_back({"propagation.range_m", "must be > 0"});
  }
  if (propagation.good_radius_m < 0.0 ||
      propagation.good_radius_m > propagation.range_m) {
    issues.push_back(
        {"propagation.good_radius_m", "must lie in [0, range_m]"});
  }
  check_fraction(propagation.base_loss, "propagation.base_loss", issues);

  if (city) {
    if (!(city->width_m > 0.0) || !(city->height_m > 0.0)) {
      issues.push_back({"city.width_m/height_m", "city area must be > 0"});
    }
    if (!(city->block_m > 0.0)) {
      issues.push_back({"city.block_m", "street spacing must be > 0"});
    } else if (city->block_m > std::max(city->width_m, city->height_m)) {
      issues.push_back(
          {"city.block_m", "exceeds the city extent — no street mesh fits"});
    }
    if (city->aps_per_km2 < 0.0 || !std::isfinite(city->aps_per_km2)) {
      issues.push_back({"city.aps_per_km2", "must be finite and >= 0"});
    }
    if (city->lateral_min_m < 0.0 ||
        city->lateral_max_m < city->lateral_min_m) {
      issues.push_back(
          {"city.lateral_min_m/max_m", "need 0 <= min <= max"});
    }
    check_channel_mix(city->channel_weights, "city", issues);
    check_backhaul(city->backhaul_min, city->backhaul_max, "city", issues);
    check_fraction(city->dead_backhaul_fraction, "city.dead_backhaul_fraction",
                   issues);
  } else if (fixed_sites.empty()) {
    if (!(deployment.road_length_m > 0.0)) {
      issues.push_back({"deployment.road_length_m", "must be > 0"});
    }
    if (deployment.aps_per_km < 0.0 || !std::isfinite(deployment.aps_per_km)) {
      issues.push_back({"deployment.aps_per_km", "must be finite and >= 0"});
    }
    if (deployment.lateral_min_m < 0.0 ||
        deployment.lateral_max_m < deployment.lateral_min_m) {
      issues.push_back(
          {"deployment.lateral_min_m/max_m", "need 0 <= min <= max"});
    }
    if (deployment.clusters_per_km < 0.0 || deployment.cluster_radius_m < 0.0) {
      issues.push_back(
          {"deployment.clusters_per_km/cluster_radius_m", "must be >= 0"});
    }
    check_channel_mix(deployment.channel_weights, "deployment", issues);
    check_backhaul(deployment.backhaul_min, deployment.backhaul_max,
                   "deployment", issues);
    check_fraction(deployment.dead_backhaul_fraction,
                   "deployment.dead_backhaul_fraction", issues);
  }

  if ((driver == DriverKind::kSpider || driver == DriverKind::kFatVap) &&
      spider.num_interfaces < 1) {
    issues.push_back({"spider.num_interfaces", "must be >= 1"});
  }

  // The impairment source must resolve before any simulator state is
  // built: trace-backed kinds ingest (and line-number-check) their
  // recordings here, so a typo'd path or a malformed row surfaces as an
  // invalid-config against the source's own field, never as a mid-run
  // failure. Synthetic schedules are builder-constructed and need no check.
  if (impairments.kind != ImpairmentSource::Kind::kSynthetic) {
    std::string error;
    if (!impairments.resolve(&error)) {
      issues.push_back({impairments.field_name(), error});
    }
  }

  if (shards < 1 || shards > phy::kMaxShards) {
    issues.push_back({"shards", "must lie in [1, " +
                                    std::to_string(phy::kMaxShards) +
                                    "] (1 = serial)"});
  }
  // Impairment sources of every kind (synthetic schedule, trace file,
  // inline timeline) are valid at any formation width: schedules compile
  // into per-shard sub-schedules at partition time (fault routing across
  // shards, DESIGN.md §12), so shards > 1 no longer pins a faulted run to
  // the serial engine.

  return issues;
}

}  // namespace spider::trace
