#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace spider::obs {

/// Human-oriented lane label for a track id ("vap 0", "ap 0xa00001",
/// "channel 6", "scheduler", "faults"). Shared by both sinks so the JSONL
/// and the Chrome trace agree on naming.
std::string track_name(std::uint32_t track);

/// One JSON object per line per retained event, oldest first. Every field
/// is always present and numbers are formatted with a fixed printf recipe,
/// so two runs with identical histories produce byte-identical files —
/// the property the determinism tests pin across worker counts.
void write_jsonl(std::ostream& os, const Tracer& tracer, std::size_t run = 0);

/// Streams Chrome trace-event JSON (chrome://tracing / Perfetto "Open
/// trace file"). Each run becomes a process (pid = run index) and each
/// track a named thread inside it, so a sweep loads as side-by-side
/// timelines with one lane per VAP, per AP and per channel. Channel
/// switches render as duration slices (B/E) on the scheduler lane and
/// faults as async spans; everything else is an instant.
///
/// Usage: construct, add_run() per tracer, finish() (or let the
/// destructor close the JSON).
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();

  void add_run(const Tracer& tracer, std::size_t run);
  void finish();

 private:
  void begin_event();

  std::ostream& os_;
  bool first_ = true;
  bool finished_ = false;
};

/// `metric,kind,value` rows in name order.
void write_metrics_csv(std::ostream& os, const MetricsRegistry& metrics);

}  // namespace spider::obs
