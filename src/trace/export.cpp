#include "trace/export.hpp"

#include <fstream>
#include <ostream>
#include <type_traits>

#include "obs/sinks.hpp"
#include "obs/tracer.hpp"

namespace spider::trace {

namespace {

std::string ms_or_empty(const std::optional<Time>& t) {
  return t ? std::to_string(to_millis(*t)) : std::string();
}

}  // namespace

bool export_csv(const std::string& path,
                const std::function<void(std::ostream&)>& writer) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  writer(f);
  return static_cast<bool>(f);
}

void write_timeseries_csv(std::ostream& os, const ThroughputRecorder& recorder) {
  os << "second,bytes\n";
  const double width = to_seconds(recorder.bin_width());
  const auto& bins = recorder.raw_bins();
  for (std::size_t i = 0; i < bins.size(); ++i) {
    os << i * width << ',' << bins[i] << '\n';
  }
}

bool write_timeseries_csv(const std::string& path,
                          const ThroughputRecorder& recorder) {
  return export_csv(path,
                    [&](std::ostream& os) { write_timeseries_csv(os, recorder); });
}

void write_join_log_csv(std::ostream& os,
                        const std::vector<core::JoinRecord>& log) {
  os << "start_s,channel,bssid,outcome,assoc_ms,dhcp_ms,e2e_ms,used_cache\n";
  for (const auto& rec : log) {
    os << to_seconds(rec.started) << ',' << rec.channel << ','
       << rec.bssid.to_string() << ',' << core::to_string(rec.outcome) << ','
       << ms_or_empty(rec.assoc_delay) << ',' << ms_or_empty(rec.dhcp_delay)
       << ',' << ms_or_empty(rec.e2e_delay) << ','
       << (rec.used_lease_cache ? 1 : 0) << '\n';
  }
}

bool write_join_log_csv(const std::string& path,
                        const std::vector<core::JoinRecord>& log) {
  return export_csv(path,
                    [&](std::ostream& os) { write_join_log_csv(os, log); });
}

void write_cdf_csv(std::ostream& os, const Cdf& cdf, const std::string& x_label) {
  os << x_label << ",cdf\n";
  cdf.finalize();
  const auto& samples = cdf.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Skip duplicates: emit each distinct x once, with its final F(x).
    if (i + 1 < samples.size() && samples[i + 1] == samples[i]) continue;
    os << samples[i] << ','
       << static_cast<double>(i + 1) / static_cast<double>(samples.size())
       << '\n';
  }
}

bool write_cdf_csv(const std::string& path, const Cdf& cdf,
                   const std::string& x_label) {
  return export_csv(path,
                    [&](std::ostream& os) { write_cdf_csv(os, cdf, x_label); });
}

void write_resilience_summary_csv(std::ostream& os,
                                  const std::vector<ScenarioResult>& results) {
  os << "run,faults_injected,outages,recoveries,ttr_p50_s,ttr_p90_s,"
        "ttr_max_s\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    os << i << ',' << r.faults_injected << ',' << r.outages << ','
       << r.recoveries << ',';
    const Cdf& ttr = r.recovery_times;
    if (!ttr.empty()) {
      os << ttr.quantile(0.5) << ',' << ttr.quantile(0.9) << ','
         << ttr.quantile(1.0);
    } else {
      os << ",,";
    }
    os << '\n';
  }
}

bool write_resilience_summary_csv(const std::string& path,
                                  const std::vector<ScenarioResult>& results) {
  return export_csv(path, [&](std::ostream& os) {
    write_resilience_summary_csv(os, results);
  });
}

void write_perf_csv(std::ostream& os,
                    const std::vector<ScenarioResult>& results) {
  // Columns are the record's declared CSV columns in declaration order;
  // counter columns hold exact per-shard sums (PerfCounters::merge_shard).
  os << "run";
  sim::PerfCounters::for_each([&os](const sim::CounterInfo& c) {
    if (c.column != nullptr) os << ',' << c.column;
  });
  os << ",sim_per_wall\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::PerfCounters& p = results[i].perf;
    os << i;
    sim::PerfCounters::for_each(
        [&os](const sim::CounterInfo& c, const auto& value) {
          if constexpr (std::is_arithmetic_v<
                            std::remove_cvref_t<decltype(value)>>) {
            if (c.column != nullptr) os << ',' << value;
          }
        },
        p);
    os << ',' << p.sim_rate() << '\n';
  }
}

bool write_perf_csv(const std::string& path,
                    const std::vector<ScenarioResult>& results) {
  return export_csv(path,
                    [&](std::ostream& os) { write_perf_csv(os, results); });
}

void write_trace_jsonl(std::ostream& os,
                       const std::vector<ScenarioResult>& results) {
  std::size_t run = 0;
  for (const ScenarioResult& result : results) {
    for (const auto& tracer : result.traces) {
      obs::write_jsonl(os, *tracer, run++);
    }
  }
}

bool write_trace_jsonl(const std::string& path,
                       const std::vector<ScenarioResult>& results) {
  return export_csv(path,
                    [&](std::ostream& os) { write_trace_jsonl(os, results); });
}

void write_trace_chrome(std::ostream& os,
                        const std::vector<ScenarioResult>& results) {
  obs::ChromeTraceWriter writer(os);
  std::size_t run = 0;
  for (const ScenarioResult& result : results) {
    for (const auto& tracer : result.traces) {
      writer.add_run(*tracer, run++);
    }
  }
  writer.finish();
}

bool write_trace_chrome(const std::string& path,
                        const std::vector<ScenarioResult>& results) {
  return export_csv(path,
                    [&](std::ostream& os) { write_trace_chrome(os, results); });
}

void write_metrics_csv(std::ostream& os,
                       const std::vector<ScenarioResult>& results) {
  obs::MetricsRegistry merged;
  for (const ScenarioResult& result : results) merged.merge(result.metrics);
  obs::write_metrics_csv(os, merged);
}

bool write_metrics_csv(const std::string& path,
                       const std::vector<ScenarioResult>& results) {
  return export_csv(path,
                    [&](std::ostream& os) { write_metrics_csv(os, results); });
}

}  // namespace spider::trace
