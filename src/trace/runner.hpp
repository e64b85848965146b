#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "sim/cancel.hpp"
#include "trace/error.hpp"
#include "trace/experiment.hpp"

namespace spider::trace {

/// File destinations for a traced run's artefacts. An empty path disables
/// that sink; with all paths empty (and tracing off) a runner does no
/// observer work at all.
struct SinkOptions {
  std::string jsonl_path;    ///< one JSON object per trace event
  std::string chrome_path;   ///< Chrome trace-event JSON (Perfetto-loadable)
  std::string metrics_path;  ///< merged metric,kind,value CSV

  bool any() const {
    return !jsonl_path.empty() || !chrome_path.empty() || !metrics_path.empty();
  }
};

/// Everything that used to be spread across three entrypoints: how many
/// seeded repetitions, how many workers, and which observers ride along.
struct RunnerOptions {
  /// Seeded repetitions per config (seed, seed+1, ...), pooled by the
  /// *_averaged entrypoints. Values < 1 behave as 1.
  int repetitions = 1;
  /// Worker threads. 0 defers to SPIDER_JOBS / hardware_concurrency (see
  /// util::ThreadPool::default_jobs); 1 runs inline on the caller.
  std::size_t jobs = 1;
  /// Record a flight recorder per run. Implied by any sink path being set.
  bool tracing = false;
  /// Ring sizing for each run's recorder (seed is stamped per run).
  obs::TracerConfig tracer;
  SinkOptions sinks;
  /// Optional cooperative stop token observed by every run this runner
  /// executes: runs in flight are interrupted at the next poll, runs not
  /// yet started are skipped (completed == false either way). Benches wire
  /// their SIGINT/SIGTERM handler here; the scenario server arms a token
  /// per request. Not owned; must outlive the runner's calls.
  sim::CancelToken* cancel = nullptr;
};

/// Outcome of a bounded run: either a completed result, or a structured
/// error — possibly still carrying the partial result harvested at the
/// interruption point (deadline/cancel), so callers can flush partial
/// output instead of losing the run entirely.
struct RunOutcome {
  std::optional<ScenarioResult> result;
  std::optional<RunError> error;

  bool ok() const { return !error.has_value(); }
};

/// The one scenario execution path. run_scenario and run_scenario_averaged
/// are thin forwarders over this class, and sweeps call run_many /
/// run_many_averaged directly, so every entry inherits the same
/// determinism contract (DESIGN.md §7): each run owns its Simulator and
/// RNG streams, results are indexed by submission order, and output is
/// byte-identical for any worker count.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions options = {});

  /// A single run of `config` (repetitions are ignored).
  ScenarioResult run_one(const ScenarioConfig& config) const;

  /// The robust entry point (DESIGN.md §11): validates `config` up front
  /// (kInvalidConfig instead of asserting downstream), runs it under the
  /// cancel/deadline token (the per-call `cancel` if given, else the
  /// runner-wide options().cancel), maps an interruption to
  /// kDeadlineExceeded/kCancelled with the partial result attached, and
  /// converts escaped exceptions to kInternal. A completed run is
  /// byte-identical to run_one() with no token installed.
  RunOutcome run_bounded(const ScenarioConfig& config,
                         sim::CancelToken* cancel = nullptr) const;

  /// `repetitions` seeded repetitions of `config`, pooled into one result.
  ScenarioResult run_averaged(const ScenarioConfig& config) const;

  /// One result per config, results[i] from configs[i], computed with
  /// `jobs` workers.
  std::vector<ScenarioResult> run_many(
      const std::vector<ScenarioConfig>& configs) const;

  /// Per config: `repetitions` seeded repetitions pooled. The expansion is
  /// flattened across configs × repetitions so repetitions of different
  /// configs overlap on the pool instead of serialising per config.
  std::vector<ScenarioResult> run_many_averaged(
      const std::vector<ScenarioConfig>& configs) const;

  /// The worker count this runner resolves to (>= 1).
  std::size_t jobs() const { return jobs_; }
  /// Whether runs record a flight recorder (explicit or implied by sinks).
  bool tracing() const { return tracing_; }
  const RunnerOptions& options() const { return options_; }

 private:
  std::vector<ScenarioResult> execute(
      const std::vector<ScenarioConfig>& expanded) const;
  void write_sinks(const std::vector<ScenarioResult>& results) const;

  RunnerOptions options_;
  std::size_t jobs_;
  bool tracing_;
};

}  // namespace spider::trace
