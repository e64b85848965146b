#include "trace/runner.hpp"

#include <algorithm>
#include <cstdio>

#include "trace/export.hpp"
#include "util/thread_pool.hpp"

namespace spider::trace {

ScenarioRunner::ScenarioRunner(RunnerOptions options)
    : options_(options),
      jobs_(options.jobs != 0 ? options.jobs
                              : util::ThreadPool::default_jobs()),
      tracing_(options.tracing || options.sinks.any()) {}

std::vector<ScenarioResult> ScenarioRunner::execute(
    const std::vector<ScenarioConfig>& expanded) const {
  // One --jobs budget covers both parallelism axes: a campaign of sharded
  // runs narrows the run pool by the widest formation it contains, so
  // runs * shards never oversubscribes the configured budget.
  std::size_t widest = 1;
  for (const ScenarioConfig& config : expanded) {
    widest = std::max(widest, static_cast<std::size_t>(config.shards));
  }
  const std::size_t pool_jobs = std::max<std::size_t>(1, jobs_ / widest);
  return util::parallel_map(pool_jobs, expanded.size(), [&](std::size_t i) {
    // A tripped token skips runs that have not started yet — the sweep
    // returns promptly with every remaining slot marked incomplete
    // instead of grinding through the backlog after a ^C.
    if (options_.cancel != nullptr && options_.cancel->should_stop()) {
      ScenarioResult skipped;
      skipped.completed = false;
      return skipped;
    }
    std::shared_ptr<obs::Tracer> tracer;
    if (tracing_) {
      obs::TracerConfig tc = options_.tracer;
      tc.seed = expanded[i].seed;
      tracer = std::make_shared<obs::Tracer>(tc);
    }
    return detail::execute_scenario(expanded[i], std::move(tracer),
                                    options_.cancel);
  });
}

RunOutcome ScenarioRunner::run_bounded(const ScenarioConfig& config,
                                       sim::CancelToken* cancel) const {
  RunOutcome outcome;
  const std::vector<ConfigIssue> issues = config.validate();
  if (!issues.empty()) {
    outcome.error =
        RunError{RunErrorKind::kInvalidConfig, join_issues(issues)};
    return outcome;
  }
  sim::CancelToken* token = cancel != nullptr ? cancel : options_.cancel;
  try {
    std::shared_ptr<obs::Tracer> tracer;
    if (tracing_) {
      obs::TracerConfig tc = options_.tracer;
      tc.seed = config.seed;
      tracer = std::make_shared<obs::Tracer>(tc);
    }
    ScenarioResult result =
        detail::execute_scenario(config, std::move(tracer), token);
    const bool completed = result.completed;
    outcome.result = std::move(result);
    if (!completed) {
      const sim::CancelReason reason =
          token != nullptr ? token->reason() : sim::CancelReason::kCancelled;
      outcome.error = RunError{
          reason == sim::CancelReason::kDeadlineExceeded
              ? RunErrorKind::kDeadlineExceeded
              : RunErrorKind::kCancelled,
          std::string("run interrupted (") + sim::to_string(reason) +
              ") at sim time " +
              std::to_string(outcome.result->perf.sim_seconds) + " s"};
    }
  } catch (const std::exception& e) {
    outcome.result.reset();
    outcome.error = RunError{RunErrorKind::kInternal, e.what()};
  } catch (...) {
    outcome.result.reset();
    outcome.error =
        RunError{RunErrorKind::kInternal, "unknown exception in runner"};
  }
  return outcome;
}

void ScenarioRunner::write_sinks(
    const std::vector<ScenarioResult>& results) const {
  const auto emit = [&](const std::string& path, bool ok) {
    if (!path.empty() && !ok) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  };
  if (!options_.sinks.jsonl_path.empty()) {
    emit(options_.sinks.jsonl_path,
         write_trace_jsonl(options_.sinks.jsonl_path, results));
  }
  if (!options_.sinks.chrome_path.empty()) {
    emit(options_.sinks.chrome_path,
         write_trace_chrome(options_.sinks.chrome_path, results));
  }
  if (!options_.sinks.metrics_path.empty()) {
    emit(options_.sinks.metrics_path,
         write_metrics_csv(options_.sinks.metrics_path, results));
  }
}

ScenarioResult ScenarioRunner::run_one(const ScenarioConfig& config) const {
  std::vector<ScenarioResult> results = execute({config});
  write_sinks(results);
  return std::move(results.front());
}

ScenarioResult ScenarioRunner::run_averaged(const ScenarioConfig& config) const {
  std::vector<ScenarioResult> pooled = run_many_averaged({config});
  return std::move(pooled.front());
}

std::vector<ScenarioResult> ScenarioRunner::run_many(
    const std::vector<ScenarioConfig>& configs) const {
  std::vector<ScenarioResult> results = execute(configs);
  write_sinks(results);
  return results;
}

std::vector<ScenarioResult> ScenarioRunner::run_many_averaged(
    const std::vector<ScenarioConfig>& configs) const {
  const int runs = options_.repetitions < 1 ? 1 : options_.repetitions;
  std::vector<ScenarioConfig> expanded;
  expanded.reserve(configs.size() * static_cast<std::size_t>(runs));
  for (const ScenarioConfig& config : configs) {
    for (int r = 0; r < runs; ++r) {
      expanded.push_back(config);
      expanded.back().seed = config.seed + static_cast<std::uint64_t>(r);
    }
  }
  const std::vector<ScenarioResult> flat = execute(expanded);

  std::vector<ScenarioResult> pooled;
  pooled.reserve(configs.size());
  for (std::size_t g = 0; g < configs.size(); ++g) {
    const auto first = flat.begin() + static_cast<std::ptrdiff_t>(
                                          g * static_cast<std::size_t>(runs));
    pooled.push_back(pool_results(std::vector<ScenarioResult>(
        first, first + static_cast<std::ptrdiff_t>(runs))));
  }
  write_sinks(pooled);
  return pooled;
}

}  // namespace spider::trace
