#pragma once

// Shared configuration for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper; the defaults here are the
// paper's experimental constants (§4.1) so individual benches only override
// what their experiment sweeps.

#include <sched.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "sim/cancel.hpp"
#include "trace/experiment.hpp"
#include "trace/export.hpp"
#include "trace/runner.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace spider::bench {

/// Process-wide cooperative stop token for bench binaries, tripped by
/// SIGINT/SIGTERM (installed by parse_sweep_cli). The sweep runner polls
/// it between and inside runs, so ^C during an hours-long sweep drains
/// promptly instead of losing everything.
inline sim::CancelToken& interrupt_token() {
  static sim::CancelToken token;
  return token;
}

namespace detail {
inline void on_interrupt_signal(int) { interrupt_token().request_cancel(); }
}  // namespace detail

inline void install_interrupt_handlers() {
  std::signal(SIGINT, detail::on_interrupt_signal);
  std::signal(SIGTERM, detail::on_interrupt_signal);
}

/// Every simulation-visible field of a faulted run, resilience counters
/// and the full TTR sample vector included. Benches with a shard axis
/// compare these strings across engine widths and reruns: a match means
/// the fault subsystem reproduced exactly, not statistically.
inline std::string fault_digest(const trace::ScenarioResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "popped=%llu tx=%llu bytes=%llu joins=%zu e2e=%zu "
                "switches=%llu conn=%.9f faults=%llu outages=%llu "
                "recovered=%llu ttr_n=%zu",
                static_cast<unsigned long long>(r.perf.events_popped),
                static_cast<unsigned long long>(r.perf.frames_tx),
                static_cast<unsigned long long>(r.total_bytes),
                r.joins_attempted, r.e2e_succeeded,
                static_cast<unsigned long long>(r.switches), r.connectivity,
                static_cast<unsigned long long>(r.faults_injected),
                static_cast<unsigned long long>(r.outages),
                static_cast<unsigned long long>(r.recoveries),
                r.recovery_times.size());
  std::string out = buf;
  for (const double s : r.recovery_times.samples()) {
    std::snprintf(buf, sizeof buf, " %.9f", s);
    out += buf;
  }
  return out;
}

/// One CLI flag a sweep bench understands. Every flag takes a value,
/// accepted as `--name VALUE` or `--name=VALUE`; `apply` runs during
/// parsing with the raw value text.
struct FlagSpec {
  std::string name;        // including the leading "--"
  std::string value_name;  // shown in the usage line, e.g. "N" or "PATH"
  std::string help;
  std::function<void(const std::string&)> apply;
};

/// Shared CLI flags of the sweep benches. Parsing is a declarative flag
/// table; benches register their own flags via `extra_flags`. Unknown
/// flags, bare positional arguments, and flags missing their value are
/// hard errors: usage goes to stderr and the bench exits with status 2.
///
///   --jobs N            worker threads; 0 = SPIDER_JOBS env, then
///                       hardware_concurrency (ThreadPool::default_jobs)
///   --perf-csv PATH     dump per-run engine counters after the sweep
///   --trace-jsonl PATH  flight-recorder events, one JSON object per line
///   --trace-chrome PATH flight-recorder events as Chrome trace-event JSON
///                       (load in Perfetto / chrome://tracing)
///   --metrics-csv PATH  merged per-layer event counters as metric,kind,value
///
/// Perf counters and traces carry host-dependent values and therefore only
/// ever go to files, never to stdout: bench stdout must stay byte-identical
/// across --jobs settings, and any --trace-* flag implies tracing without
/// touching stdout.
struct SweepCli {
  /// Runner options the flags fill in. Unlike RunnerOptions' own default
  /// of one worker, a bench without --jobs uses every hardware thread.
  trace::RunnerOptions sweep{.jobs = 0};
  std::string perf_csv;

  /// Validates every config up front; malformed sweeps print the issues
  /// and exit 2 instead of asserting (or silently misbehaving) mid-run.
  void check(const std::vector<trace::ScenarioConfig>& configs) const {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::vector<trace::ConfigIssue> issues = configs[i].validate();
      if (!issues.empty()) {
        std::fprintf(stderr, "invalid scenario (sweep index %zu): %s\n", i,
                     trace::join_issues(issues).c_str());
        std::exit(2);
      }
    }
  }

  /// Validated sweep with graceful-interrupt semantics: on SIGINT/SIGTERM
  /// the sweep drains, partial sinks are flushed, a completed/total count
  /// goes to stderr, and the bench exits 130 — stdout never carries a
  /// partial table that could be mistaken for a full run.
  std::vector<trace::ScenarioResult> run(
      const std::vector<trace::ScenarioConfig>& configs) const {
    check(configs);
    std::vector<trace::ScenarioResult> results =
        trace::ScenarioRunner(sweep).run_many(configs);
    exit_if_interrupted(results);
    return results;
  }

  std::vector<trace::ScenarioResult> run_averaged(
      const std::vector<trace::ScenarioConfig>& configs, int runs) const {
    check(configs);
    trace::RunnerOptions options = sweep;
    options.repetitions = runs;
    std::vector<trace::ScenarioResult> results =
        trace::ScenarioRunner(options).run_many_averaged(configs);
    exit_if_interrupted(results);
    return results;
  }

  void exit_if_interrupted(
      const std::vector<trace::ScenarioResult>& results) const {
    if (sweep.cancel == nullptr || !sweep.cancel->cancel_requested()) return;
    std::size_t done = 0;
    for (const trace::ScenarioResult& r : results) done += r.completed;
    // Trace sinks were already flushed by the runner; add the perf CSV
    // for the runs that did finish.
    if (!perf_csv.empty() && !trace::write_perf_csv(perf_csv, results)) {
      std::fprintf(stderr, "warning: could not write %s\n", perf_csv.c_str());
    }
    std::fprintf(stderr,
                 "interrupted: %zu/%zu runs completed; partial output "
                 "flushed\n",
                 done, results.size());
    std::exit(130);
  }
};

inline void print_sweep_usage(const char* argv0,
                              const std::vector<FlagSpec>& flags) {
  std::fprintf(stderr, "usage: %s", argv0);
  for (const FlagSpec& f : flags) {
    std::fprintf(stderr, " [%s %s]", f.name.c_str(), f.value_name.c_str());
  }
  std::fprintf(stderr, "\n");
  for (const FlagSpec& f : flags) {
    std::fprintf(stderr, "  %s %s\n      %s\n", f.name.c_str(),
                 f.value_name.c_str(), f.help.c_str());
  }
}

inline SweepCli parse_sweep_cli(int argc, char** argv,
                                std::vector<FlagSpec> extra_flags = {}) {
  SweepCli cli;
  install_interrupt_handlers();
  cli.sweep.cancel = &interrupt_token();
  std::vector<FlagSpec> flags = {
      {"--jobs", "N",
       "worker threads; 0 = SPIDER_JOBS env, then hardware_concurrency",
       [&cli](const std::string& v) {
         cli.sweep.jobs = std::strtoul(v.c_str(), nullptr, 10);
       }},
      {"--perf-csv", "PATH", "dump per-run engine counters after the sweep",
       [&cli](const std::string& v) { cli.perf_csv = v; }},
      {"--trace-jsonl", "PATH",
       "record a flight recorder per run; write events as JSON lines",
       [&cli](const std::string& v) { cli.sweep.sinks.jsonl_path = v; }},
      {"--trace-chrome", "PATH",
       "record a flight recorder per run; write Chrome trace-event JSON",
       [&cli](const std::string& v) { cli.sweep.sinks.chrome_path = v; }},
      {"--metrics-csv", "PATH",
       "write merged per-layer event counters as metric,kind,value rows",
       [&cli](const std::string& v) { cli.sweep.sinks.metrics_path = v; }},
  };
  for (FlagSpec& f : extra_flags) flags.push_back(std::move(f));

  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", argv[0], message.c_str());
    print_sweep_usage(argv[0], flags);
    std::exit(2);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      fail("unexpected argument '" + arg + "'");
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : flags) {
      if (f.name == name) {
        spec = &f;
        break;
      }
    }
    if (spec == nullptr) {
      fail("unknown flag '" + name + "'");
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fail("flag '" + name + "' expects a value (" + spec->value_name + ")");
    }
    spec->apply(value);
  }
  return cli;
}

inline void maybe_write_perf_csv(const SweepCli& cli,
                                 const std::vector<trace::ScenarioResult>& results) {
  if (cli.perf_csv.empty()) return;
  if (!trace::write_perf_csv(cli.perf_csv, results)) {
    std::fprintf(stderr, "warning: could not write %s\n", cli.perf_csv.c_str());
  }
}

/// The "our town" vehicular environment of §4.1: a downtown road driven
/// repeatedly at passenger-car speed, open APs concentrated on channels
/// 1/6/11, residential backhauls, heavy-tailed DHCP servers.
inline trace::ScenarioConfig town_scenario(std::uint64_t seed = 1) {
  trace::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = sec(1800);  // "30-60 minutes" per experiment
  cfg.speed_mps = 10.0;
  cfg.deployment.road_length_m = 2500;
  cfg.deployment.aps_per_km = 10;
  cfg.driver = trace::DriverKind::kSpider;
  cfg.spider.mode = core::OperationMode::single(1);
  return cfg;
}

/// Spider's tuned mobile stack (100 ms link-layer timers, reduced DHCP
/// retransmit) used throughout §4 unless the experiment sweeps timers.
inline core::SpiderConfig tuned_spider() {
  core::SpiderConfig c;
  c.num_interfaces = 7;
  c.mlme = {.ll_timeout = msec(100), .max_retries = 5};
  c.dhcp = {.retx_timeout = msec(600), .max_sends = 4};
  return c;
}

/// Prints a CDF as fraction-at-or-below over a fixed grid, one row per x.
inline void print_cdf(const std::string& label, const Cdf& cdf,
                      const std::vector<double>& grid,
                      const std::string& x_label) {
  TextTable t({x_label, "F(x) [" + label + "]", "n=" + std::to_string(cdf.size())});
  for (double x : grid) {
    t.add_row({TextTable::num(x, 2), TextTable::num(cdf.fraction_at_or_below(x), 3)});
  }
  t.print(std::cout);
  if (!cdf.empty()) {
    std::printf("  median=%.2f  mean=%.2f  p90=%.2f\n\n", cdf.median(),
                cdf.mean(), cdf.quantile(0.9));
  } else {
    std::printf("  (no samples)\n\n");
  }
}

inline std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(lo + (hi - lo) * i / (n - 1));
  }
  return out;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "==========================================================\n"
            << title << "\n(" << paper_ref << ")\n"
            << "==========================================================\n";
}

// CMake build type, defined for every bench target (bench/CMakeLists.txt).
#ifndef SPIDER_BUILD_TYPE
#define SPIDER_BUILD_TYPE "unknown"
#endif

/// CPUs this process may run on (its affinity mask) — what a sharded
/// formation's threads can actually use. hardware_concurrency() counts
/// every online CPU, including ones a cgroup cpuset or taskset fenced off.
inline unsigned usable_cores() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

/// Host block for BENCH_*.json files: a recorded rate means nothing
/// without the machine and build that produced it. Returns a JSON object:
/// {"nproc", "cpu" (/proc/cpuinfo model name), "compiler", "build_type"}.
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    cpu = line.substr(colon + 1);
    cpu.erase(0, cpu.find_first_not_of(' '));
    break;
  }
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + util::json_escape(cpu) + "\", \"compiler\": \"" +
         util::json_escape(__VERSION__) + "\", \"build_type\": \"" +
         SPIDER_BUILD_TYPE + "\"}";
}

}  // namespace spider::bench
