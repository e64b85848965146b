#include "trace/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/spider_driver.hpp"
#include "mobility/mobility.hpp"
#include "obs/tracer.hpp"
#include "trace/runner.hpp"

namespace spider::trace {

const char* to_string(DriverKind k) {
  switch (k) {
    case DriverKind::kSpider: return "spider";
    case DriverKind::kStock: return "stock";
    case DriverKind::kFatVap: return "fatvap";
  }
  return "?";
}

int ScenarioConfig::resolved_clients() const {
  if (client_mix.empty()) return std::max(1, clients);
  int total = 0;
  for (const ClientMixEntry& entry : client_mix) {
    total += std::max(0, entry.count);
  }
  return std::max(1, total);
}

double ScenarioResult::dhcp_failure_fraction() const {
  if (assoc_succeeded == 0) return 0.0;
  return 1.0 -
         static_cast<double>(dhcp_succeeded) / static_cast<double>(assoc_succeeded);
}

namespace detail {

void digest_join_log(ScenarioResult& result) {
  result.joins_attempted = result.join_log.size();
  for (const auto& rec : result.join_log) {
    result.assoc_succeeded += rec.assoc_delay.has_value() ? 1 : 0;
    result.dhcp_succeeded += rec.dhcp_delay.has_value() ? 1 : 0;
    result.e2e_succeeded +=
        rec.outcome == core::JoinOutcome::kEndToEnd && rec.finished ? 1 : 0;
  }
}

ScenarioResult execute_scenario(const ScenarioConfig& config,
                                std::shared_ptr<obs::Tracer> tracer,
                                sim::CancelToken* cancel) {
  // Formations of more than one shard take the sharded twin (one testbed
  // per shard, lockstep windows). Impairment sources ride along: the
  // schedule is compiled into per-shard sub-schedules at partition time
  // (fault::partition_schedule, DESIGN.md §12).
  const int shards = resolve_shards(config);
  if (shards > 1) {
    return execute_scenario_sharded(config, shards, std::move(tracer), cancel);
  }
  const auto wall_start = std::chrono::steady_clock::now();
  TestbedConfig tb_config;
  tb_config.seed = config.seed;
  tb_config.propagation = config.propagation;
  tb_config.medium.neighbor_index = config.neighbor_index;
  tb_config.medium.grid_cell_m = config.grid_cell_m;
  Testbed bed(tb_config);
  if (cancel != nullptr) bed.sim.set_cancel_token(cancel);
  // Installed before any entity schedules work so the trace covers the
  // whole run. The recorder only reads the sim clock — never wall time —
  // so the trace is a pure function of (config, seed).
  if (tracer) bed.sim.set_tracer(tracer.get());

  // Populate the road (or the city street mesh).
  Rng deploy_rng = bed.fork_rng();
  const auto sites =
      !config.fixed_sites.empty()
          ? config.fixed_sites
          : config.city
              ? mob::generate_city_deployment(*config.city, deploy_rng)
              : mob::generate_deployment(config.deployment, deploy_rng);
  for (const auto& site : sites) {
    Testbed::ApSpec spec;
    spec.channel = site.channel;
    spec.position = site.position;
    spec.backhaul = site.backhaul;
    spec.backhaul_delay = config.backhaul_delay;
    spec.internet_connected = site.internet_connected;
    spec.dhcp = config.dhcp_server;
    bed.add_ap(spec);
  }

  // The vehicles. Each client rig owns its route and driver stack; radios
  // sample routes lazily through position callbacks, so positions stay pure
  // functions of sim time (the contract the medium's mobile-rebucket epoch
  // check relies on, DESIGN.md §10).
  struct ClientRig {
    std::unique_ptr<mob::MobilityModel> route;
    /// Phase shift into the route, staggering road clients along the loop.
    Time offset{0};
    std::unique_ptr<core::SpiderDriver> spider;
    std::unique_ptr<base::StockWifiDriver> stock;
    std::unique_ptr<base::FatVapDriver> fatvap;
    std::unique_ptr<core::LinkManager> manager;
    std::unique_ptr<core::AdaptiveModeController> adaptive;
  };
  const int clients = config.resolved_clients();
  const std::vector<ClientProfile> profiles =
      expand_client_mix(config.client_mix, clients);
  std::vector<ClientRig> rigs(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    ClientRig& rig = rigs[static_cast<std::size_t>(c)];
    if (config.city) {
      // Each city client tours its own randomly drawn block rectangle. The
      // forks happen only in city mode, after the deployment fork, so
      // road-mode runs replay their exact pre-city RNG streams.
      Rng route_rng = bed.fork_rng();
      rig.route = std::make_unique<mob::WaypointLoop>(
          mob::city_route_waypoints(*config.city, route_rng),
          config.speed_mps);
    } else {
      rig.route = std::make_unique<mob::BackAndForthRoad>(
          config.deployment.road_length_m, config.speed_mps);
      // Spread road clients evenly along the route (offset 0 for the first
      // client keeps single-client runs byte-identical to the old path).
      if (config.speed_mps > 0.0) {
        rig.offset = sec(config.deployment.road_length_m * c /
                         (clients * config.speed_mps));
      }
    }
  }

  ThroughputRecorder recorder(config.metrics_bin);
  DownloadHarness harness(bed.sim, bed.server_ip(), recorder);
  ScenarioResult result;

  // Impairment timeline: the declarative source resolves to the schedule
  // the injector arms (synthetic sources pass through verbatim; trace-backed
  // ones ingest + compile here). The injector master derives from the
  // scenario seed under a fixed salt — never from the testbed's fork chain
  // (whose position depends on AP/client counts) — so per-spec dwell
  // streams match the sharded engine's partition_schedule exactly, and
  // impairment-free scenarios replay the exact pre-fault streams.
  fault::FaultSchedule faults;
  if (!config.impairments.none()) {
    std::string error;
    std::optional<fault::FaultSchedule> resolved =
        config.impairments.resolve(&error);
    if (!resolved) {
      // Callers that ran validate() first never land here; direct callers
      // (unit tests, ad-hoc drivers) get the field-named failure.
      throw std::runtime_error(std::string(config.impairments.field_name()) +
                               ": " + error);
    }
    faults = std::move(*resolved);
  }
  ResilienceRecorder resilience;
  std::optional<fault::FaultInjector> injector;
  if (!faults.empty()) {
    injector.emplace(bed.sim, Rng(fault::fault_stream_seed(config.seed)));
    injector->attach_medium(bed.medium);
    for (auto& bundle : bed.aps()) {
      injector->add_ap(*bundle.ap, bundle.network.get());
    }
    injector->set_fault_observer(
        [&resilience, &sim = bed.sim](const fault::FaultSpec&) {
          resilience.note_fault(sim.now());
        });
    injector->arm(faults);
    // Link events carry the client identity (the MAC block, shared by the
    // radio and every interface in it), keeping outage detection per client
    // — the same bookkeeping a formation does shard-by-shard.
    harness.set_extra_callbacks({
        .on_link_up =
            [&resilience, &sim = bed.sim](core::VirtualInterface& vif) {
              resilience.note_link_up(sim.now(), vif.mac().raw() >> 8);
            },
        .on_link_down =
            [&resilience, &sim = bed.sim](core::VirtualInterface& vif) {
              resilience.note_link_down(sim.now(), vif.mac().raw() >> 8);
            },
    });
  }

  // Declare the clients' motion bound to the medium: every route above is a
  // constant-path-speed MobilityModel, so speed_mps is a true ceiling and
  // the grid may amortise mobile rebucketing against it (a pure wall-clock
  // optimisation — delivered sets, counters and RNG draws are unchanged).
  core::SpiderConfig spider_cfg = config.spider;
  spider_cfg.radio.max_speed_mps = config.speed_mps;
  base::StockConfig stock_cfg = config.stock;
  stock_cfg.stack.radio.max_speed_mps = config.speed_mps;

  // Assemble one driver stack per client. Construction and start order per
  // rig matches the old single-client path exactly (driver, manager,
  // harness attach, starts, adaptive), so one-client runs replay the same
  // event sequence to the byte. Each rig's config starts from the shared
  // tuned copy and has its mix profile applied on top — a default profile
  // is the exact identity, so mix-free scenarios are unchanged.
  for (int c = 0; c < clients; ++c) {
    ClientRig& rig = rigs[static_cast<std::size_t>(c)];
    const ClientProfile& profile = profiles[static_cast<std::size_t>(c)];
    auto position = [route = rig.route.get(), offset = rig.offset,
                     &sim = bed.sim] {
      return route->position_at(sim.now() + offset);
    };
    switch (config.driver) {
      case DriverKind::kSpider: {
        core::SpiderConfig rig_cfg = spider_cfg;
        profile.apply(rig_cfg);
        rig.spider = std::make_unique<core::SpiderDriver>(
            bed.sim, bed.medium, bed.next_client_mac_block(), position,
            rig_cfg);
        rig.manager =
            std::make_unique<core::LinkManager>(*rig.spider, bed.server_ip());
        harness.attach(*rig.manager);
        rig.spider->start();
        rig.manager->start();
        if (config.adaptive) {
          rig.adaptive = std::make_unique<core::AdaptiveModeController>(
              *rig.spider, [speed = config.speed_mps] { return speed; },
              config.adaptive_config);
          rig.adaptive->start();
        }
        break;
      }
      case DriverKind::kStock: {
        base::StockConfig rig_cfg = stock_cfg;
        profile.apply(rig_cfg);
        rig.stock = std::make_unique<base::StockWifiDriver>(
            bed.sim, bed.medium, bed.next_client_mac_block(), position,
            rig_cfg, bed.server_ip());
        harness.attach(*rig.stock);
        rig.stock->start();
        break;
      }
      case DriverKind::kFatVap: {
        core::SpiderConfig rig_cfg = spider_cfg;
        profile.apply(rig_cfg);
        rig.fatvap = std::make_unique<base::FatVapDriver>(
            bed.sim, bed.medium, bed.next_client_mac_block(), position,
            rig_cfg, config.fatvap);
        rig.manager =
            std::make_unique<core::LinkManager>(*rig.fatvap, bed.server_ip());
        harness.attach(*rig.manager);
        rig.fatvap->start();
        rig.manager->start();
        break;
      }
    }
  }
  bed.sim.run_until(config.duration);
  result.completed = !bed.sim.interrupted();

  // Harvest in client order: join logs concatenate, switch counts sum,
  // latency accumulators merge (parallel Welford). An interrupted run
  // harvests the same way — partial output is flushed, not discarded.
  for (ClientRig& rig : rigs) {
    switch (config.driver) {
      case DriverKind::kSpider: {
        const auto& log = rig.manager->join_log();
        result.join_log.insert(result.join_log.end(), log.begin(), log.end());
        result.switches += rig.spider->switches();
        result.switch_latency_ms.merge(rig.spider->switch_latency_stats());
        break;
      }
      case DriverKind::kStock: {
        const auto& log = rig.stock->join_log();
        result.join_log.insert(result.join_log.end(), log.begin(), log.end());
        result.switches += rig.stock->radio().switches_performed();
        break;
      }
      case DriverKind::kFatVap: {
        const auto& log = rig.manager->join_log();
        result.join_log.insert(result.join_log.end(), log.begin(), log.end());
        result.switches += rig.fatvap->radio().switches_performed();
        break;
      }
    }
  }

  // An interrupted run closes its timeline at the interruption point, so
  // connectivity/throughput fractions describe the simulated span, not the
  // never-reached configured horizon. Completed runs have now() == duration.
  recorder.finalize(bed.sim.now());
  result.avg_throughput_kBps = recorder.average_throughput_kBps();
  result.connectivity = recorder.connectivity_fraction();
  result.connection_durations = Cdf(recorder.connection_durations());
  result.disruption_durations = Cdf(recorder.disruption_durations());
  result.instantaneous_kBps = Cdf(recorder.instantaneous_kBps());
  result.total_bytes = recorder.total_bytes();
  result.faults_injected = resilience.faults_injected();
  result.outages = resilience.outages();
  result.recoveries = resilience.recoveries();
  result.recovery_times = resilience.time_to_recover();
  digest_join_log(result);
  result.perf = bed.sim.perf();
  bed.medium.add_perf(result.perf);
  result.perf.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (tracer) {
    bed.sim.set_tracer(nullptr);
    result.metrics = tracer->metrics();
    // Medium-side spatial-grid counters ride along with the trace-derived
    // metrics so sinks see them next to the per-layer event counts.
    result.metrics.count("phy.grid_cells_scanned",
                         bed.medium.grid_cells_scanned());
    result.metrics.count("phy.grid_rebuckets", bed.medium.grid_rebuckets());
    result.traces.push_back(std::move(tracer));
  }
  return result;
}

}  // namespace detail

ScenarioResult run_scenario(const ScenarioConfig& config) {
  return ScenarioRunner().run_one(config);
}

ScenarioResult pool_results(const std::vector<ScenarioResult>& runs) {
  ScenarioResult pooled;
  const auto n = static_cast<int>(runs.size());
  for (const ScenarioResult& one : runs) {
    pooled.avg_throughput_kBps += one.avg_throughput_kBps / n;
    pooled.connectivity += one.connectivity / n;
    pooled.total_bytes += one.total_bytes;
    pooled.switches += one.switches;
    for (double x : one.connection_durations.samples()) {
      pooled.connection_durations.add(x);
    }
    for (double x : one.disruption_durations.samples()) {
      pooled.disruption_durations.add(x);
    }
    for (double x : one.instantaneous_kBps.samples()) {
      pooled.instantaneous_kBps.add(x);
    }
    pooled.faults_injected += one.faults_injected;
    pooled.outages += one.outages;
    pooled.recoveries += one.recoveries;
    for (double x : one.recovery_times.samples()) {
      pooled.recovery_times.add(x);
    }
    pooled.completed = pooled.completed && one.completed;
    pooled.join_log.insert(pooled.join_log.end(), one.join_log.begin(),
                           one.join_log.end());
    pooled.switch_latency_ms.merge(one.switch_latency_ms);
    pooled.perf.merge(one.perf);
    pooled.metrics.merge(one.metrics);
    pooled.traces.insert(pooled.traces.end(), one.traces.begin(),
                         one.traces.end());
  }
  detail::digest_join_log(pooled);
  return pooled;
}

ScenarioResult run_scenario_averaged(ScenarioConfig config, int runs) {
  RunnerOptions options;
  options.repetitions = runs;
  return ScenarioRunner(options).run_averaged(config);
}

}  // namespace spider::trace
