#include "serve/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "serve/client.hpp"
#include "trace/runner.hpp"
#include "trace/scenario_json.hpp"
#include "util/json.hpp"

namespace spider::serve {

using util::Json;
using util::json_number;

void CampaignStats::absorb(const RunStats& run) {
  ++runs;
  throughput_kBps.add(run.avg_throughput_kBps);
  connectivity.add(run.connectivity);
  switch_latency_ms.merge(run.switch_latency_ms);
  total_bytes += run.total_bytes;
  switches += run.switches;
  joins_attempted += run.joins_attempted;
  assoc_succeeded += run.assoc_succeeded;
  dhcp_succeeded += run.dhcp_succeeded;
  e2e_succeeded += run.e2e_succeeded;
}

std::string CampaignStats::digest() const {
  const auto stats = [](const OnlineStats& s) {
    return std::to_string(s.count()) + ':' + json_number(s.mean()) + ':' +
           json_number(s.m2()) + ':' + json_number(s.min()) + ':' +
           json_number(s.max()) + ':' + json_number(s.sum());
  };
  std::ostringstream os;
  os << "runs=" << runs << " tput=" << stats(throughput_kBps)
     << " conn=" << stats(connectivity)
     << " lat=" << stats(switch_latency_ms) << " bytes=" << total_bytes
     << " switches=" << switches << " joins=" << joins_attempted
     << " assoc=" << assoc_succeeded << " dhcp=" << dhcp_succeeded
     << " e2e=" << e2e_succeeded;
  return os.str();
}

CampaignStats serial_campaign_stats(const trace::ScenarioConfig& base,
                                    std::uint64_t first_seed,
                                    std::size_t num_seeds, std::size_t jobs) {
  std::vector<trace::ScenarioConfig> configs(num_seeds, base);
  for (std::size_t i = 0; i < num_seeds; ++i) {
    configs[i].seed = first_seed + i;
  }
  trace::RunnerOptions options;
  options.jobs = jobs == 0 ? 1 : jobs;
  const trace::ScenarioRunner runner(options);
  const std::vector<trace::ScenarioResult> results = runner.run_many(configs);
  CampaignStats merged;
  for (const trace::ScenarioResult& result : results) {
    merged.absorb(RunStats::from_result(result));
  }
  return merged;
}

namespace {

/// Wire error kinds worth another attempt: the run may succeed on a
/// retry (or on another server). invalid-config never will.
bool retryable_kind(const std::string& kind) {
  return kind == "deadline-exceeded" || kind == "cancelled" ||
         kind == "internal" || kind == "overloaded" ||
         kind == "shutting-down";
}

struct Pending {
  std::uint64_t seed = 0;
  int attempts = 0;
};

struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  std::size_t outstanding = 0;  ///< unresolved seeds (queued or in flight)
  std::size_t active_workers = 0;
  std::map<std::uint64_t, RunStats> results;  ///< ascending-seed merge order
  std::vector<SeedFailure> failures;
  std::size_t retries = 0;
  std::FILE* journal = nullptr;
  std::mutex journal_mu;
};

void journal_append(Shared& shared, std::uint64_t seed,
                    const RunStats& stats) {
  if (shared.journal == nullptr) return;
  std::ostringstream os;
  os << "{\"seed\":" << seed << ",\"result\":";
  stats.write_json(os);
  os << "}\n";
  const std::string line = os.str();
  std::lock_guard<std::mutex> lock(shared.journal_mu);
  std::fwrite(line.data(), 1, line.size(), shared.journal);
  std::fflush(shared.journal);
}

bool cancelled(const CampaignConfig& config) {
  return config.cancel != nullptr && config.cancel->should_stop();
}

/// One campaign worker, pinned to one server socket. Dispatches seeds from
/// the shared queue; on any retryable trouble the seed goes back to the
/// queue (for any worker), and a worker whose server stops answering
/// connects its way out or exits so the rest of the fleet absorbs the load.
void campaign_worker(const CampaignConfig& config, const std::string& socket,
                     Shared& shared) {
  LineClient client;
  int connect_failures = 0;
  constexpr int kMaxConnectFailures = 5;

  const auto resolve_ok = [&](std::uint64_t seed, const RunStats& stats) {
    journal_append(shared, seed, stats);
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.results.emplace(seed, stats);
    --shared.outstanding;
    shared.cv.notify_all();
  };
  const auto resolve_failed = [&](const Pending& p, std::string kind,
                                  std::string message) {
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.failures.push_back(
        SeedFailure{p.seed, std::move(kind), std::move(message)});
    --shared.outstanding;
    shared.cv.notify_all();
  };
  const auto requeue = [&](Pending p) {
    std::lock_guard<std::mutex> lock(shared.mu);
    ++shared.retries;
    shared.queue.push_back(p);
    shared.cv.notify_all();
  };
  const auto backoff_for = [&](int attempts) {
    double ms = config.backoff_initial_ms;
    for (int i = 1; i < attempts; ++i) ms *= 2.0;
    return std::min(ms, config.backoff_max_ms);
  };
  // A failed dispatch either goes around again or exhausts the seed.
  const auto retry_or_fail = [&](Pending p, const std::string& kind,
                                 const std::string& message,
                                 double wait_ms) {
    if (p.attempts >= config.max_attempts) {
      resolve_failed(p, kind, message);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(std::max(wait_ms, 0.0) * 1e3)));
    requeue(p);
  };

  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(shared.mu);
      shared.cv.wait(lock, [&] {
        return !shared.queue.empty() || shared.outstanding == 0 ||
               cancelled(config);
      });
      if (shared.outstanding == 0) return;
      if (cancelled(config)) return;
      if (shared.queue.empty()) continue;  // others still in flight
      pending = shared.queue.front();
      shared.queue.pop_front();
    }
    ++pending.attempts;

    if (!client.connected()) {
      std::string error;
      if (!client.connect_to(socket, &error)) {
        ++connect_failures;
        // Give the seed back before deciding whether to keep trying.
        {
          std::lock_guard<std::mutex> lock(shared.mu);
          ++shared.retries;
          Pending back = pending;
          --back.attempts;  // a dead server is not the seed's fault
          shared.queue.push_back(back);
          shared.cv.notify_all();
        }
        if (connect_failures >= kMaxConnectFailures) return;
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(backoff_for(connect_failures) * 1e3)));
        continue;
      }
      connect_failures = 0;
    }

    trace::ScenarioConfig scenario = config.base;
    scenario.seed = pending.seed;
    std::ostringstream request;
    request << "{\"op\":\"run\",\"id\":\"s" << pending.seed << "\"";
    if (config.deadline_ms > 0.0) {
      request << ",\"deadline_ms\":" << json_number(config.deadline_ms);
    }
    request << ",\"scenario\":" << trace::scenario_to_json(scenario) << '}';

    if (!client.send_line(request.str())) {
      retry_or_fail(pending, "unreachable", "send failed to " + socket,
                    backoff_for(pending.attempts));
      continue;
    }
    const std::optional<std::string> line =
        client.recv_line(config.response_timeout_ms);
    if (!line.has_value()) {
      // Timeout or disconnect. Drop the connection either way — a late
      // response must not be mistaken for the next seed's.
      client.disconnect();
      retry_or_fail(pending, "unreachable",
                    "no response from " + socket + " within " +
                        std::to_string(config.response_timeout_ms) + " ms",
                    backoff_for(pending.attempts));
      continue;
    }

    const std::optional<Json> json = Json::parse(*line);
    if (!json.has_value() || !json->is_object()) {
      retry_or_fail(pending, "protocol", "unparsable response from " + socket,
                    backoff_for(pending.attempts));
      continue;
    }
    const Json* ok = json->find("ok");
    if (ok != nullptr && ok->bool_or(false)) {
      const Json* result = json->find("result");
      std::optional<RunStats> stats;
      if (result != nullptr) stats = RunStats::from_json(*result);
      if (!stats.has_value() || !stats->completed) {
        retry_or_fail(pending, "protocol",
                      "ok response without a completed result",
                      backoff_for(pending.attempts));
        continue;
      }
      resolve_ok(pending.seed, *stats);
      continue;
    }

    const Json* error = json->find("error");
    std::string kind = "internal";
    std::string message;
    if (error != nullptr) {
      if (const Json* k = error->find("kind")) kind = k->string_or(kind);
      if (const Json* m = error->find("message")) {
        message = m->string_or("");
      }
    }
    if (!retryable_kind(kind)) {
      resolve_failed(pending, kind, message);
      continue;
    }
    double wait_ms = backoff_for(pending.attempts);
    if (const Json* retry_after = json->find("retry_after_ms")) {
      wait_ms = std::max(wait_ms, retry_after->number_or(0.0));
      --pending.attempts;  // backpressure is not the seed's fault
    }
    retry_or_fail(pending, kind, message, wait_ms);
  }
}

/// Loads completed seeds from an existing journal into `results`.
std::size_t load_journal(const std::string& path, std::uint64_t first_seed,
                         std::size_t num_seeds,
                         std::map<std::uint64_t, RunStats>& results) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  std::size_t loaded = 0;
  std::string line;
  int c;
  const auto flush_line = [&] {
    if (line.empty()) return;
    const std::optional<Json> json = Json::parse(line);
    line.clear();
    if (!json.has_value() || !json->is_object()) return;
    const Json* seed = json->find("seed");
    const Json* result = json->find("result");
    if (seed == nullptr || result == nullptr) return;
    const auto s = static_cast<std::uint64_t>(seed->number_or(0.0));
    if (s < first_seed || s >= first_seed + num_seeds) return;
    const std::optional<RunStats> stats = RunStats::from_json(*result);
    if (!stats.has_value() || !stats->completed) return;
    if (results.emplace(s, *stats).second) ++loaded;
  };
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      flush_line();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  flush_line();
  std::fclose(f);
  return loaded;
}

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  CampaignReport report;
  Shared shared;

  if (!config.journal_path.empty()) {
    report.resumed = load_journal(config.journal_path, config.first_seed,
                                  config.num_seeds, shared.results);
    shared.journal = std::fopen(config.journal_path.c_str(), "a");
  }

  for (std::size_t i = 0; i < config.num_seeds; ++i) {
    const std::uint64_t seed = config.first_seed + i;
    if (shared.results.find(seed) != shared.results.end()) continue;
    shared.queue.push_back(Pending{seed, 0});
  }
  shared.outstanding = shared.queue.size();

  if (shared.outstanding > 0 && !config.servers.empty()) {
    std::vector<std::thread> workers;
    const std::size_t per_server = std::max<std::size_t>(
        std::size_t{1}, config.clients_per_server);
    shared.active_workers = config.servers.size() * per_server;
    workers.reserve(shared.active_workers);
    for (const std::string& socket : config.servers) {
      for (std::size_t k = 0; k < per_server; ++k) {
        workers.emplace_back([&config, &socket, &shared] {
          campaign_worker(config, socket, shared);
          std::lock_guard<std::mutex> lock(shared.mu);
          if (--shared.active_workers == 0) shared.cv.notify_all();
        });
      }
    }
    // If every worker gives up (all servers unreachable) or the campaign
    // is cancelled, resolve what's left as failures so join() terminates.
    {
      std::unique_lock<std::mutex> lock(shared.mu);
      const auto fail_queued = [&shared, &config] {
        const bool was_cancelled = cancelled(config);
        for (const Pending& p : shared.queue) {
          shared.failures.push_back(SeedFailure{
              p.seed, was_cancelled ? "cancelled" : "unreachable",
              was_cancelled ? "campaign cancelled"
                            : "no server could run this seed"});
        }
        shared.outstanding -=
            std::min(shared.outstanding, shared.queue.size());
        shared.queue.clear();
      };
      shared.cv.wait(lock, [&] {
        return shared.outstanding == 0 || shared.active_workers == 0 ||
               cancelled(config);
      });
      fail_queued();
      // Seeds held by still-running workers resolve, fail, or requeue on
      // their own; wait for them, then sweep whatever they put back.
      shared.cv.wait(lock, [&] {
        return shared.outstanding == 0 || shared.active_workers == 0;
      });
      fail_queued();
      shared.outstanding = 0;  // release any worker still waiting
    }
    shared.cv.notify_all();
    for (std::thread& w : workers) w.join();
  } else if (shared.outstanding > 0) {
    std::lock_guard<std::mutex> lock(shared.mu);
    for (const Pending& p : shared.queue) {
      shared.failures.push_back(
          SeedFailure{p.seed, "unreachable", "no servers configured"});
    }
    shared.queue.clear();
    shared.outstanding = 0;
  }

  if (shared.journal != nullptr) std::fclose(shared.journal);

  report.completed = shared.results.size();
  report.retries = shared.retries;
  report.failures = std::move(shared.failures);
  std::sort(report.failures.begin(), report.failures.end(),
            [](const SeedFailure& a, const SeedFailure& b) {
              return a.seed < b.seed;
            });
  for (const auto& [seed, stats] : shared.results) {
    report.merged.absorb(stats);  // std::map iterates seeds ascending
  }
  return report;
}

}  // namespace spider::serve
