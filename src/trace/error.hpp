#pragma once

#include <string>
#include <vector>

namespace spider::trace {

/// Structured failure taxonomy for scenario execution. Every way a run can
/// fail maps to one of these, both over the server wire protocol and from
/// the library API (ScenarioRunner::run_bounded) — bad input is reported,
/// never asserted on.
enum class RunErrorKind {
  kInvalidConfig,      ///< ScenarioConfig::validate() rejected the request
  kDeadlineExceeded,   ///< wall-clock deadline passed mid-run
  kCancelled,          ///< explicit cancellation (client gone, shutdown, ^C)
  kInternal,           ///< unexpected exception inside the runner
};

/// Stable wire identifier ("invalid-config", "deadline-exceeded", ...).
const char* to_string(RunErrorKind kind);

struct RunError {
  RunErrorKind kind = RunErrorKind::kInternal;
  std::string message;
};

/// One problem found by ScenarioConfig::validate(): the offending field
/// (dotted path, e.g. "city.block_m") plus a human-readable explanation.
struct ConfigIssue {
  std::string field;
  std::string message;
};

/// Joins issues into one "field: message; field: message" line for error
/// payloads and CLI diagnostics.
std::string join_issues(const std::vector<ConfigIssue>& issues);

}  // namespace spider::trace
