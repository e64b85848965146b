#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/link_manager.hpp"
#include "trace/experiment.hpp"
#include "trace/metrics.hpp"
#include "util/stats.hpp"

namespace spider::trace {

/// CSV exporters for post-processing (plotting the reproduced figures with
/// external tooling). All writers take a stream overload (unit-testable)
/// and a path convenience overload; files are truncated.

/// The one open-truncate-write-check recipe behind every path overload:
/// opens `path` truncated, applies `writer` to the stream, and returns
/// whether both the open and the writes succeeded.
bool export_csv(const std::string& path,
                const std::function<void(std::ostream&)>& writer);

/// `second,bytes` — the ThroughputRecorder's binned timeline.
void write_timeseries_csv(std::ostream& os, const ThroughputRecorder& recorder);
bool write_timeseries_csv(const std::string& path,
                          const ThroughputRecorder& recorder);

/// `start_s,channel,bssid,outcome,assoc_ms,dhcp_ms,e2e_ms,used_cache`
void write_join_log_csv(std::ostream& os,
                        const std::vector<core::JoinRecord>& log);
bool write_join_log_csv(const std::string& path,
                        const std::vector<core::JoinRecord>& log);

/// `x,cdf` over every distinct sample (exact empirical CDF).
void write_cdf_csv(std::ostream& os, const Cdf& cdf, const std::string& x_label);
bool write_cdf_csv(const std::string& path, const Cdf& cdf,
                   const std::string& x_label);

/// One row per result, in submission order:
/// `run,faults_injected,outages,recoveries,ttr_p50_s,ttr_p90_s,ttr_max_s`
/// (empty recovery distributions print empty cells). Deterministic — no
/// wall-clock fields — so trace-replay sweeps can pin this file's bytes.
void write_resilience_summary_csv(std::ostream& os,
                                  const std::vector<ScenarioResult>& results);
bool write_resilience_summary_csv(const std::string& path,
                                  const std::vector<ScenarioResult>& results);

/// One row per sweep result, in submission order:
/// `run,events_popped,events_cancelled,heap_peak,compactions,sim_s,wall_s,sim_per_wall`.
/// This is where the host-dependent wall-clock numbers go — they are kept
/// out of bench stdout so sweep output stays byte-identical across --jobs.
void write_perf_csv(std::ostream& os,
                    const std::vector<ScenarioResult>& results);
bool write_perf_csv(const std::string& path,
                    const std::vector<ScenarioResult>& results);

/// Flight-recorder sinks over a batch of (possibly pooled) results. The
/// run index restarts from 0 and counts every retained tracer across the
/// batch in submission order, so sweep output is byte-identical for any
/// worker count. No-ops (header/empty envelope only) when nothing was
/// traced.

/// One JSON object per line per retained event (see obs::write_jsonl).
void write_trace_jsonl(std::ostream& os,
                       const std::vector<ScenarioResult>& results);
bool write_trace_jsonl(const std::string& path,
                       const std::vector<ScenarioResult>& results);

/// Chrome trace-event JSON: one process per traced run, one named thread
/// lane per VAP / AP / channel (see obs::ChromeTraceWriter).
void write_trace_chrome(std::ostream& os,
                        const std::vector<ScenarioResult>& results);
bool write_trace_chrome(const std::string& path,
                        const std::vector<ScenarioResult>& results);

/// `metric,kind,value` rows of every result's registry merged (counters
/// sum, gauges max), in name order.
void write_metrics_csv(std::ostream& os,
                       const std::vector<ScenarioResult>& results);
bool write_metrics_csv(const std::string& path,
                       const std::vector<ScenarioResult>& results);

}  // namespace spider::trace
