#include "trace/scenario_json.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>

namespace spider::trace {

using util::Json;
using util::json_escape;
using util::json_number;

namespace {

bool driver_from_string(const std::string& name, DriverKind* out) {
  if (name == "spider") *out = DriverKind::kSpider;
  else if (name == "stock") *out = DriverKind::kStock;
  else if (name == "fatvap") *out = DriverKind::kFatVap;
  else return false;
  return true;
}

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Rounding second/millisecond parsers for the extension fields: a Time
/// printed as %.17g seconds re-parses to the identical tick, which the
/// ingest -> serialize -> ingest byte-identity contract depends on.
/// (The legacy duration_s/metrics_bin_s keys keep their original
/// truncating semantics untouched.)
Time seconds_exact(double v) {
  return Time{static_cast<std::int64_t>(std::llround(v * 1e6))};
}
Time millis_exact(double v) {
  return Time{static_cast<std::int64_t>(std::llround(v * 1e3))};
}

void write_replay(std::ostream& os, const tracein::ReplayOptions& replay) {
  os << "{\"mapping\":\"" << tracein::to_string(replay.mapping) << '"'
     << ",\"loss_scale\":" << json_number(replay.loss_scale)
     << ",\"min_occupancy\":" << json_number(replay.min_occupancy)
     << ",\"tail_window_s\":" << json_number(to_seconds(replay.tail_window))
     << ",\"burst_dwell_ms\":" << json_number(to_millis(replay.burst_dwell))
     << '}';
}

bool parse_replay(const Json& json, tracein::ReplayOptions* replay,
                  std::string* error) {
  if (!json.is_object()) {
    return set_error(error, "impairments.replay must be a JSON object");
  }
  for (const auto& [key, value] : json.members()) {
    if (key == "mapping") {
      if (!value.is_string() ||
          !tracein::replay_mapping_from_string(value.string_value(),
                                               &replay->mapping)) {
        return set_error(error,
                         "impairments.replay.mapping must be "
                         "interference|burst");
      }
    } else if (key == "loss_scale") {
      if (!value.is_number()) {
        return set_error(error,
                         "impairments.replay.loss_scale must be a number");
      }
      replay->loss_scale = value.number_or(0.0);
    } else if (key == "min_occupancy") {
      if (!value.is_number()) {
        return set_error(error,
                         "impairments.replay.min_occupancy must be a number");
      }
      replay->min_occupancy = value.number_or(0.0);
    } else if (key == "tail_window_s") {
      if (!value.is_number()) {
        return set_error(error,
                         "impairments.replay.tail_window_s must be a number");
      }
      replay->tail_window = seconds_exact(value.number_or(0.0));
    } else if (key == "burst_dwell_ms") {
      if (!value.is_number()) {
        return set_error(error,
                         "impairments.replay.burst_dwell_ms must be a number");
      }
      replay->burst_dwell = millis_exact(value.number_or(0.0));
    } else {
      return set_error(error,
                       "unknown impairments.replay key '" + key + "'");
    }
  }
  return true;
}

bool parse_fault_spec(const Json& json, std::size_t index,
                      fault::FaultSpec* spec, std::string* error) {
  const std::string prefix =
      "impairments.schedule[" + std::to_string(index) + "]";
  if (!json.is_object()) {
    return set_error(error, prefix + " must be a JSON object");
  }
  for (const auto& [key, value] : json.members()) {
    if (key == "kind") {
      if (!value.is_string() ||
          !fault::fault_kind_from_string(value.string_value(), &spec->kind)) {
        return set_error(error, prefix + ".kind is not a known fault kind");
      }
    } else if (key == "at_s") {
      if (!value.is_number()) {
        return set_error(error, prefix + ".at_s must be a number");
      }
      spec->at = seconds_exact(value.number_or(0.0));
    } else if (key == "duration_s") {
      if (!value.is_number()) {
        return set_error(error, prefix + ".duration_s must be a number");
      }
      spec->duration = seconds_exact(value.number_or(0.0));
    } else if (key == "target") {
      if (!value.is_number()) {
        return set_error(error, prefix + ".target must be a number");
      }
      spec->target = static_cast<int>(value.number_or(0.0));
    } else if (key == "intensity") {
      if (!value.is_number()) {
        return set_error(error, prefix + ".intensity must be a number");
      }
      spec->intensity = value.number_or(0.0);
    } else if (key == "burst_ms") {
      if (!value.is_number()) {
        return set_error(error, prefix + ".burst_ms must be a number");
      }
      spec->burst_mean = millis_exact(value.number_or(0.0));
    } else if (key == "gap_ms") {
      if (!value.is_number()) {
        return set_error(error, prefix + ".gap_ms must be a number");
      }
      spec->gap_mean = millis_exact(value.number_or(0.0));
    } else {
      return set_error(error, "unknown " + prefix + " key '" + key + "'");
    }
  }
  return true;
}

bool parse_impairments(const Json& json, ImpairmentSource* out,
                       std::string* error) {
  if (!json.is_object()) {
    return set_error(error, "impairments must be a JSON object");
  }
  ImpairmentSource src;
  const Json* kind = json.find("kind");
  if (kind == nullptr || !kind->is_string() ||
      !impairment_kind_from_string(kind->string_value(), &src.kind)) {
    return set_error(error,
                     "impairments.kind must be "
                     "synthetic|trace-file|inline-timeline");
  }
  for (const auto& [key, value] : json.members()) {
    if (key == "kind") {
      continue;
    } else if (key == "schedule") {
      if (src.kind != ImpairmentSource::Kind::kSynthetic) {
        return set_error(
            error, "impairments.schedule only applies to kind 'synthetic'");
      }
      if (!value.is_array()) {
        return set_error(error, "impairments.schedule must be an array");
      }
      for (std::size_t i = 0; i < value.elements().size(); ++i) {
        fault::FaultSpec spec;
        if (!parse_fault_spec(value.elements()[i], i, &spec, error)) {
          return false;
        }
        src.schedule.add(spec);
      }
    } else if (key == "path") {
      if (src.kind != ImpairmentSource::Kind::kTraceFile) {
        return set_error(error,
                         "impairments.path only applies to kind 'trace-file'");
      }
      if (!value.is_string()) {
        return set_error(error, "impairments.path must be a string");
      }
      src.trace_path = value.string_value();
    } else if (key == "samples") {
      if (src.kind != ImpairmentSource::Kind::kInlineTimeline) {
        return set_error(
            error,
            "impairments.samples only applies to kind 'inline-timeline'");
      }
      if (!value.is_array()) {
        return set_error(error, "impairments.samples must be an array");
      }
      for (std::size_t i = 0; i < value.elements().size(); ++i) {
        const Json& row = value.elements()[i];
        const std::string prefix =
            "impairments.samples[" + std::to_string(i) + "]";
        if (!row.is_array() || row.elements().size() != 3 ||
            !row.elements()[0].is_number() || !row.elements()[1].is_number() ||
            !row.elements()[2].is_number()) {
          return set_error(
              error, prefix + " must be [t_s, channel, occupancy] numbers");
        }
        tracein::OccupancySample sample;
        sample.at = seconds_exact(row.elements()[0].number_or(0.0));
        sample.channel =
            static_cast<wire::Channel>(row.elements()[1].number_or(0.0));
        sample.occupancy = row.elements()[2].number_or(0.0);
        src.timeline.samples.push_back(sample);
      }
    } else if (key == "replay") {
      if (src.kind == ImpairmentSource::Kind::kSynthetic) {
        return set_error(
            error, "impairments.replay only applies to trace-backed kinds");
      }
      if (!parse_replay(value, &src.replay, error)) return false;
    } else {
      return set_error(error, "unknown impairments key '" + key + "'");
    }
  }
  *out = std::move(src);
  return true;
}

bool parse_client_mix(const Json& json, ClientMix* out, std::string* error) {
  if (!json.is_array()) {
    return set_error(error, "client_mix must be an array");
  }
  ClientMix mix;
  for (std::size_t i = 0; i < json.elements().size(); ++i) {
    const Json& entry = json.elements()[i];
    const std::string prefix = "client_mix[" + std::to_string(i) + "]";
    if (!entry.is_object()) {
      return set_error(error, prefix + " must be a JSON object");
    }
    ClientMixEntry e;
    // The preset seeds the knobs, then explicit knob keys override — a
    // wire entry is "a named profile, possibly customized".
    const Json* profile = entry.find("profile");
    if (profile != nullptr) {
      ClientProfileKind kind;
      if (!profile->is_string() ||
          !client_profile_kind_from_string(profile->string_value(), &kind)) {
        return set_error(error,
                         prefix +
                             ".profile must be default|aggressive-scanner|"
                             "sticky-device|psm-phone");
      }
      e.profile = ClientProfile::preset(kind);
    }
    for (const auto& [key, value] : entry.members()) {
      if (key == "profile") {
        continue;
      } else if (key == "count") {
        if (!value.is_number()) {
          return set_error(error, prefix + ".count must be a number");
        }
        e.count = static_cast<int>(value.number_or(0.0));
      } else if (key == "scan_aggressiveness") {
        if (!value.is_number()) {
          return set_error(error,
                           prefix + ".scan_aggressiveness must be a number");
        }
        e.profile.scan_aggressiveness = value.number_or(0.0);
      } else if (key == "ap_stickiness") {
        if (!value.is_number()) {
          return set_error(error, prefix + ".ap_stickiness must be a number");
        }
        e.profile.ap_stickiness = value.number_or(0.0);
      } else if (key == "psm_duty") {
        if (!value.is_number()) {
          return set_error(error, prefix + ".psm_duty must be a number");
        }
        e.profile.psm_duty = value.number_or(0.0);
      } else {
        return set_error(error, "unknown " + prefix + " key '" + key + "'");
      }
    }
    mix.push_back(e);
  }
  *out = std::move(mix);
  return true;
}

}  // namespace

void write_scenario_json(std::ostream& os, const ScenarioConfig& config) {
  os << "{\"seed\":" << config.seed
     << ",\"duration_s\":" << json_number(to_seconds(config.duration))
     << ",\"speed_mps\":" << json_number(config.speed_mps)
     << ",\"clients\":" << config.clients
     << ",\"shards\":" << config.shards
     << ",\"metrics_bin_s\":" << json_number(to_seconds(config.metrics_bin))
     << ",\"driver\":\"" << to_string(config.driver) << '"'
     << ",\"adaptive\":" << (config.adaptive ? "true" : "false")
     << ",\"num_interfaces\":" << config.spider.num_interfaces
     << ",\"mode\":{\"period_ms\":"
     << json_number(to_millis(config.spider.mode.period)) << ",\"fractions\":[";
  bool first = true;
  for (const auto& [channel, fraction] : config.spider.mode.fractions) {
    if (!first) os << ',';
    first = false;
    os << '[' << channel << ',' << json_number(fraction) << ']';
  }
  os << "]}";
  if (config.city) {
    os << ",\"city\":{\"width_m\":" << json_number(config.city->width_m)
       << ",\"height_m\":" << json_number(config.city->height_m)
       << ",\"block_m\":" << json_number(config.city->block_m)
       << ",\"aps_per_km2\":" << json_number(config.city->aps_per_km2) << '}';
  } else {
    os << ",\"road_length_m\":" << json_number(config.deployment.road_length_m)
       << ",\"aps_per_km\":" << json_number(config.deployment.aps_per_km);
  }
  // Extensions travel only when non-default, so a mix-free, impairment-free
  // config serializes to the exact pre-extension protocol bytes.
  if (!config.client_mix.empty()) {
    os << ",\"client_mix\":[";
    bool first_entry = true;
    for (const ClientMixEntry& entry : config.client_mix) {
      if (!first_entry) os << ',';
      first_entry = false;
      os << "{\"profile\":\"" << to_string(entry.profile.kind)
         << "\",\"count\":" << entry.count << ",\"scan_aggressiveness\":"
         << json_number(entry.profile.scan_aggressiveness)
         << ",\"ap_stickiness\":" << json_number(entry.profile.ap_stickiness)
         << ",\"psm_duty\":" << json_number(entry.profile.psm_duty) << '}';
    }
    os << ']';
  }
  const ImpairmentSource& imp = config.impairments;
  const bool default_impairments =
      imp.kind == ImpairmentSource::Kind::kSynthetic && imp.schedule.empty();
  if (!default_impairments) {
    os << ",\"impairments\":{\"kind\":\"" << imp.kind_name() << '"';
    switch (imp.kind) {
      case ImpairmentSource::Kind::kSynthetic: {
        os << ",\"schedule\":[";
        bool first_spec = true;
        for (const fault::FaultSpec& spec : imp.schedule.specs()) {
          if (!first_spec) os << ',';
          first_spec = false;
          os << "{\"kind\":\"" << fault::to_string(spec.kind)
             << "\",\"at_s\":" << json_number(to_seconds(spec.at))
             << ",\"duration_s\":" << json_number(to_seconds(spec.duration))
             << ",\"target\":" << spec.target
             << ",\"intensity\":" << json_number(spec.intensity)
             << ",\"burst_ms\":" << json_number(to_millis(spec.burst_mean))
             << ",\"gap_ms\":" << json_number(to_millis(spec.gap_mean))
             << '}';
        }
        os << ']';
        break;
      }
      case ImpairmentSource::Kind::kTraceFile: {
        os << ",\"path\":\"" << json_escape(imp.trace_path)
           << "\",\"replay\":";
        write_replay(os, imp.replay);
        break;
      }
      case ImpairmentSource::Kind::kInlineTimeline: {
        os << ",\"samples\":[";
        bool first_sample = true;
        for (const tracein::OccupancySample& s : imp.timeline.samples) {
          if (!first_sample) os << ',';
          first_sample = false;
          os << '[' << json_number(to_seconds(s.at)) << ','
             << static_cast<int>(s.channel) << ','
             << json_number(s.occupancy) << ']';
        }
        os << "],\"replay\":";
        write_replay(os, imp.replay);
        break;
      }
    }
    os << '}';
  }
  os << '}';
}

std::string scenario_to_json(const ScenarioConfig& config) {
  std::ostringstream os;
  write_scenario_json(os, config);
  return os.str();
}

bool parse_scenario_json(const Json& json, ScenarioConfig* config,
                         std::string* error) {
  if (!json.is_object()) {
    return set_error(error, "scenario must be a JSON object");
  }
  ScenarioConfig out;  // protocol defaults = library defaults
  for (const auto& [key, value] : json.members()) {
    if (key == "seed") {
      out.seed = static_cast<std::uint64_t>(value.number_or(1.0));
    } else if (key == "duration_s") {
      out.duration = sec(value.number_or(0.0));
    } else if (key == "speed_mps") {
      out.speed_mps = value.number_or(-1.0);
    } else if (key == "clients") {
      out.clients = static_cast<int>(value.number_or(0.0));
    } else if (key == "shards") {
      // Non-numeric values resolve to -1 so validate() rejects them as
      // invalid_config instead of silently running a different formation.
      out.shards = static_cast<int>(value.number_or(-1.0));
    } else if (key == "metrics_bin_s") {
      out.metrics_bin = sec(value.number_or(0.0));
    } else if (key == "driver") {
      if (!value.is_string() ||
          !driver_from_string(value.string_value(), &out.driver)) {
        return set_error(error, "driver must be spider|stock|fatvap");
      }
    } else if (key == "adaptive") {
      out.adaptive = value.bool_or(false);
    } else if (key == "num_interfaces") {
      out.spider.num_interfaces =
          static_cast<std::size_t>(value.number_or(0.0));
    } else if (key == "mode") {
      const Json* period = value.find("period_ms");
      const Json* fractions = value.find("fractions");
      if (!value.is_object() || period == nullptr || fractions == nullptr ||
          !fractions->is_array()) {
        return set_error(error, "mode needs period_ms and fractions");
      }
      core::OperationMode mode;
      mode.period = msec(static_cast<std::int64_t>(period->number_or(0.0)));
      for (const Json& pair : fractions->elements()) {
        if (!pair.is_array() || pair.elements().size() != 2) {
          return set_error(error, "mode fraction entries are [channel,frac]");
        }
        mode.fractions.emplace_back(
            static_cast<wire::Channel>(pair.elements()[0].number_or(0.0)),
            pair.elements()[1].number_or(0.0));
      }
      out.spider.mode = mode;
    } else if (key == "road_length_m") {
      out.deployment.road_length_m = value.number_or(0.0);
    } else if (key == "aps_per_km") {
      out.deployment.aps_per_km = value.number_or(-1.0);
    } else if (key == "city") {
      mob::CityGridConfig city;
      if (!value.is_object()) {
        return set_error(error, "city must be a JSON object");
      }
      for (const auto& [ckey, cvalue] : value.members()) {
        if (ckey == "width_m") city.width_m = cvalue.number_or(0.0);
        else if (ckey == "height_m") city.height_m = cvalue.number_or(0.0);
        else if (ckey == "block_m") city.block_m = cvalue.number_or(0.0);
        else if (ckey == "aps_per_km2") {
          city.aps_per_km2 = cvalue.number_or(-1.0);
        } else {
          return set_error(error, "unknown city key '" + ckey + "'");
        }
      }
      out.city = city;
    } else if (key == "client_mix") {
      if (!parse_client_mix(value, &out.client_mix, error)) return false;
    } else if (key == "impairments") {
      if (!parse_impairments(value, &out.impairments, error)) return false;
    } else {
      // Strict: a dropped key would silently run a different experiment
      // than the client intended.
      return set_error(error, "unknown scenario key '" + key + "'");
    }
  }
  *config = std::move(out);
  return true;
}

bool parse_scenario_json(const std::string& text, ScenarioConfig* config,
                         std::string* error) {
  std::string parse_error;
  const std::optional<Json> json = Json::parse(text, &parse_error);
  if (!json) {
    return set_error(error, "scenario JSON: " + parse_error);
  }
  return parse_scenario_json(*json, config, error);
}

}  // namespace spider::trace
