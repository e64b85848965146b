#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "trace/runner.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace spider::serve {

/// Wire protocol of the resident scenario server (DESIGN.md §11): newline-
/// delimited JSON over a local stream socket. One request object per line,
/// one response object per line; responses stream back as runs finish and
/// are matched to requests by the client-chosen "id". Doubles travel in
/// exact-round-trip form, which is what lets the campaign runner's merged
/// statistics equal a serial in-process sweep bit for bit.

/// Everything of one run's result that crosses the wire (and lands in the
/// campaign journal): the scalar metrics plus the switch-latency moments,
/// enough to reconstruct the OnlineStats accumulator exactly.
struct RunStats {
  bool completed = true;
  double avg_throughput_kBps = 0.0;
  double connectivity = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t switches = 0;
  std::uint64_t joins_attempted = 0;
  std::uint64_t assoc_succeeded = 0;
  std::uint64_t dhcp_succeeded = 0;
  std::uint64_t e2e_succeeded = 0;
  OnlineStats switch_latency_ms;
  double sim_seconds = 0.0;
  std::uint64_t events_popped = 0;

  static RunStats from_result(const trace::ScenarioResult& result);
  void write_json(std::ostream& os) const;
  static std::optional<RunStats> from_json(const util::Json& json);
};

/// Response envelopes. Every response carries the request id (empty string
/// when the request was too malformed to have one).
std::string make_ok_run_response(const std::string& id, const RunStats& stats);
std::string make_error_response(const std::string& id,
                                const trace::RunError& error,
                                double retry_after_ms = 0.0,
                                const RunStats* partial = nullptr);
/// Server-level rejections that never reached the runner: protocol errors
/// ("invalid-request"), request lines over the server's 1 MiB cap
/// ("line-too-long", after which the server closes the connection),
/// backpressure ("overloaded", with a retry_after_ms hint), and drain-mode
/// refusals ("shutting-down").
std::string make_reject_response(const std::string& id, const char* kind,
                                 const std::string& message,
                                 double retry_after_ms = 0.0);
std::string make_pong_response(const std::string& id);

}  // namespace spider::serve
