#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

namespace spider::serve {

using util::Json;
using util::json_escape;
using util::json_number;

RunStats RunStats::from_result(const trace::ScenarioResult& result) {
  RunStats s;
  s.completed = result.completed;
  s.avg_throughput_kBps = result.avg_throughput_kBps;
  s.connectivity = result.connectivity;
  s.total_bytes = result.total_bytes;
  s.switches = result.switches;
  s.joins_attempted = result.joins_attempted;
  s.assoc_succeeded = result.assoc_succeeded;
  s.dhcp_succeeded = result.dhcp_succeeded;
  s.e2e_succeeded = result.e2e_succeeded;
  s.switch_latency_ms = result.switch_latency_ms;
  s.sim_seconds = result.perf.sim_seconds;
  s.events_popped = result.perf.events_popped;
  return s;
}

void RunStats::write_json(std::ostream& os) const {
  os << "{\"completed\":" << (completed ? "true" : "false")
     << ",\"avg_throughput_kBps\":" << json_number(avg_throughput_kBps)
     << ",\"connectivity\":" << json_number(connectivity)
     << ",\"total_bytes\":" << total_bytes << ",\"switches\":" << switches
     << ",\"joins_attempted\":" << joins_attempted
     << ",\"assoc_succeeded\":" << assoc_succeeded
     << ",\"dhcp_succeeded\":" << dhcp_succeeded
     << ",\"e2e_succeeded\":" << e2e_succeeded << ",\"switch_latency_ms\":{"
     << "\"n\":" << switch_latency_ms.count()
     << ",\"mean\":" << json_number(switch_latency_ms.mean())
     << ",\"m2\":" << json_number(switch_latency_ms.m2())
     << ",\"min\":" << json_number(switch_latency_ms.min())
     << ",\"max\":" << json_number(switch_latency_ms.max())
     << ",\"sum\":" << json_number(switch_latency_ms.sum()) << '}'
     << ",\"sim_seconds\":" << json_number(sim_seconds)
     << ",\"events_popped\":" << events_popped << '}';
}

std::optional<RunStats> RunStats::from_json(const Json& json) {
  if (!json.is_object()) return std::nullopt;
  RunStats s;
  const auto number = [&json](const char* key, double fallback) {
    const Json* v = json.find(key);
    return v != nullptr ? v->number_or(fallback) : fallback;
  };
  const Json* completed = json.find("completed");
  s.completed = completed != nullptr && completed->bool_or(false);
  s.avg_throughput_kBps = number("avg_throughput_kBps", 0.0);
  s.connectivity = number("connectivity", 0.0);
  s.total_bytes = static_cast<std::uint64_t>(number("total_bytes", 0.0));
  s.switches = static_cast<std::uint64_t>(number("switches", 0.0));
  s.joins_attempted =
      static_cast<std::uint64_t>(number("joins_attempted", 0.0));
  s.assoc_succeeded =
      static_cast<std::uint64_t>(number("assoc_succeeded", 0.0));
  s.dhcp_succeeded = static_cast<std::uint64_t>(number("dhcp_succeeded", 0.0));
  s.e2e_succeeded = static_cast<std::uint64_t>(number("e2e_succeeded", 0.0));
  s.sim_seconds = number("sim_seconds", 0.0);
  s.events_popped = static_cast<std::uint64_t>(number("events_popped", 0.0));
  const Json* lat = json.find("switch_latency_ms");
  if (lat != nullptr && lat->is_object()) {
    const auto lat_num = [lat](const char* key) {
      const Json* v = lat->find(key);
      return v != nullptr ? v->number_or(0.0) : 0.0;
    };
    s.switch_latency_ms = OnlineStats::from_moments(
        static_cast<std::size_t>(lat_num("n")), lat_num("mean"),
        lat_num("m2"), lat_num("min"), lat_num("max"), lat_num("sum"));
  }
  return s;
}

std::string make_ok_run_response(const std::string& id,
                                 const RunStats& stats) {
  std::ostringstream os;
  os << "{\"id\":\"" << json_escape(id) << "\",\"ok\":true,\"result\":";
  stats.write_json(os);
  os << '}';
  return os.str();
}

namespace {

std::string error_envelope(const std::string& id, const char* kind,
                           const std::string& message, double retry_after_ms,
                           const RunStats* partial) {
  std::ostringstream os;
  os << "{\"id\":\"" << json_escape(id)
     << "\",\"ok\":false,\"error\":{\"kind\":\"" << kind << "\",\"message\":\""
     << json_escape(message) << "\"}";
  if (retry_after_ms > 0.0) {
    os << ",\"retry_after_ms\":" << json_number(retry_after_ms);
  }
  if (partial != nullptr) {
    os << ",\"partial\":";
    partial->write_json(os);
  }
  os << '}';
  return os.str();
}

}  // namespace

std::string make_error_response(const std::string& id,
                                const trace::RunError& error,
                                double retry_after_ms,
                                const RunStats* partial) {
  return error_envelope(id, to_string(error.kind), error.message,
                        retry_after_ms, partial);
}

std::string make_reject_response(const std::string& id, const char* kind,
                                 const std::string& message,
                                 double retry_after_ms) {
  return error_envelope(id, kind, message, retry_after_ms, nullptr);
}

std::string make_pong_response(const std::string& id) {
  return "{\"id\":\"" + json_escape(id) + "\",\"ok\":true,\"pong\":true}";
}

}  // namespace spider::serve
