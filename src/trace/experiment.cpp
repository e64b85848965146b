#include "trace/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/spider_driver.hpp"
#include "fault/fault.hpp"
#include "mobility/mobility.hpp"
#include "obs/tracer.hpp"
#include "phy/shard_fabric.hpp"
#include "phy/shard_link.hpp"
#include "sim/sharded.hpp"
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

namespace {

/// Per-shard testbed seed: a splitmix-style scramble of (seed, shard) so
/// sibling shards draw independent streams while staying a pure function
/// of the scenario seed.
std::uint64_t shard_seed(std::uint64_t seed, int shard) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull *
                               (static_cast<std::uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

int resolve_shards(const ScenarioConfig& config) {
  if (config.shards != 0) return std::max(1, config.shards);
  // Automatic width, decided purely from the workload (never from the
  // host) so every machine resolves — and reproduces — the same formation.
  // Only city-scale populations amortise the window barriers. Impairment
  // sources do not pin the run to one testbed: schedules compile into
  // per-shard sub-schedules at partition time (DESIGN.md §12).
  const bool city_scale =
      config.city.has_value() && config.resolved_clients() >= 16;
  return city_scale ? 4 : 1;
}

ScenarioResult execute_scenario(const ScenarioConfig& config,
                                std::shared_ptr<obs::Tracer> tracer,
                                sim::CancelToken* cancel) {
  const auto wall_start = std::chrono::steady_clock::now();
  // The placement's width. Width 1 is one testbed with no bus and no
  // fabric; wider formations run one testbed per shard in lockstep windows
  // (DESIGN.md §12). Everything else below is written once for both.
  const int S = resolve_shards(config);
  const auto width = static_cast<std::size_t>(S);

  // One testbed per shard: its own simulator, medium, wired core and
  // download server. Event ids are seeded into disjoint per-shard spaces —
  // TCP connection ids travel across shards inside packets, so two home
  // shards must never mint the same id (shard 0's space is the default).
  std::vector<std::unique_ptr<Testbed>> beds;
  std::vector<phy::Medium*> mediums;
  std::vector<sim::Simulator*> sims;
  beds.reserve(width);
  for (int s = 0; s < S; ++s) {
    TestbedConfig tb_config;
    tb_config.seed = S == 1 ? config.seed : shard_seed(config.seed, s);
    tb_config.propagation = config.propagation;
    beds.push_back(std::make_unique<Testbed>(tb_config));
    beds.back()->sim.seed_ids(static_cast<std::uint64_t>(s) << 48);
    mediums.push_back(&beds.back()->medium);
    sims.push_back(&beds.back()->sim);
  }
  // Installed before any entity schedules work so the trace covers the
  // whole run. The recorder only reads the sim clock — never wall time —
  // so the trace is a pure function of (config, seed). One flight recorder
  // cannot span event loops: shard 0 uses the given one and every other
  // shard gets its own with the same capacity and seed label.
  std::vector<std::shared_ptr<obs::Tracer>> tracers;
  if (tracer) {
    tracers.push_back(std::move(tracer));
    for (int s = 1; s < S; ++s) {
      tracers.push_back(std::make_shared<obs::Tracer>(obs::TracerConfig{
          tracers[0]->capacity(), tracers[0]->seed()}));
    }
    for (int s = 0; s < S; ++s) {
      sims[static_cast<std::size_t>(s)]->set_tracer(
          tracers[static_cast<std::size_t>(s)].get());
    }
  }

  // The physical world comes from one stream drawn in a fixed order at
  // every width: the deployment, then each AP's MAC and network streams in
  // global index order, then one route per city client. A formation thus
  // simulates the same city as one testbed, sliced differently.
  Rng world(config.seed);
  Rng deploy_rng = world.fork();
  const auto sites =
      !config.fixed_sites.empty()
          ? config.fixed_sites
          : config.city
              ? mob::generate_city_deployment(*config.city, deploy_rng)
              : mob::generate_deployment(config.deployment, deploy_rng);

  // Channel/stripe ownership from the AP population (at width 1 shard 0
  // owns everything).
  std::vector<std::pair<wire::Channel, double>> ap_xs;
  ap_xs.reserve(sites.size());
  for (const auto& site : sites) {
    ap_xs.push_back({site.channel, site.position.x});
  }
  const phy::ShardPartition partition =
      phy::build_shard_partition(ap_xs, S, config.propagation.range_m);
  std::optional<sim::ShardedSimulator> bus;
  std::optional<phy::ShardFabric> fabric;
  if (S > 1) {
    bus.emplace(sims, phy::kShardLookahead);
    fabric.emplace(*bus, mediums, partition, [](wire::MacAddress mac) {
      return mac.raw() >= Testbed::kClientMacBase;
    });
  }

  // APs go to their stripe owners, carrying their deployment-global index
  // so BSSIDs and subnets match at every width. The owner/local-index
  // maps feed fault routing: an entity-scoped fault addressed to global AP
  // g must land on g's owner shard, re-targeted to g's position in that
  // shard's injector registration order.
  std::vector<int> ap_owner_shard(sites.size(), 0);
  std::vector<int> ap_local_index(sites.size(), 0);
  std::vector<int> ap_count(width, 0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto& site = sites[i];
    Testbed::ApSpec spec;
    spec.channel = site.channel;
    spec.position = site.position;
    spec.backhaul = site.backhaul;
    spec.backhaul_delay = config.backhaul_delay;
    spec.internet_connected = site.internet_connected;
    spec.dhcp = config.dhcp_server;
    spec.index = i;
    spec.streams = &world;
    const int owner = partition.owner(site.channel, site.position.x);
    beds[static_cast<std::size_t>(owner)]->add_ap(spec);
    ap_owner_shard[i] = owner;
    ap_local_index[i] = ap_count[static_cast<std::size_t>(owner)]++;
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
      Rng route_rng = world.fork();
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

  // Goodput timelines are per shard — each recorder is fed only from its
  // own event loop — and merge bin-by-bin after the run.
  std::vector<std::unique_ptr<ThroughputRecorder>> recorders;
  std::vector<std::unique_ptr<DownloadHarness>> harnesses;
  for (int s = 0; s < S; ++s) {
    Testbed& bed = *beds[static_cast<std::size_t>(s)];
    recorders.push_back(
        std::make_unique<ThroughputRecorder>(config.metrics_bin));
    harnesses.push_back(std::make_unique<DownloadHarness>(
        bed.sim, bed.server_ip(), *recorders.back()));
  }
  ScenarioResult result;

  // Impairment timeline: the declarative source resolves to the schedule
  // the injectors arm (synthetic sources pass through verbatim; trace-backed
  // ones ingest + compile here). The schedule compiles into per-shard
  // sub-schedules (DESIGN.md §12): channel faults to every stripe owner of
  // the channel, entity faults to the target AP's owner shard, global
  // faults to every AP-bearing shard, with one shard per spec designated
  // onset accountant so resilience counters exact-sum like
  // PerfCounters::merge_shard. The stream master derives from the scenario
  // seed under a fixed salt — never from the testbed's fork chain (whose
  // position depends on AP/client counts) — and forks once per spec in
  // schedule order, so every width hands each spec the same dwell stream
  // and impairment-free scenarios replay the exact pre-fault streams.
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
  std::vector<ResilienceRecorder> resilience(width);
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors(width);
  if (!faults.empty()) {
    fault::FaultRouter router;
    router.shards = S;
    router.total_aps = sites.size();
    router.channel_owners = [&partition](int channel) {
      int buf[phy::kMaxShards];
      const int n =
          partition.stripe_owners(static_cast<wire::Channel>(channel), buf);
      return std::vector<int>(buf, buf + n);
    };
    router.ap_owner = [&ap_owner_shard, &ap_local_index](std::size_t g) {
      return std::pair<int, int>(ap_owner_shard[g], ap_local_index[g]);
    };
    const Rng fault_master(fault::fault_stream_seed(config.seed));
    std::vector<std::vector<fault::RoutedFault>> routed =
        fault::partition_schedule(faults, fault_master, router);
    for (int s = 0; s < S; ++s) {
      Testbed& bed = *beds[static_cast<std::size_t>(s)];
      ResilienceRecorder& rec = resilience[static_cast<std::size_t>(s)];
      // Each shard's harness reports its clients' link churn into the
      // shard-local recorder (every event fires on that shard's thread).
      // Link events carry the client identity (the MAC block, shared by the
      // radio and every interface in it), so the post-run merge equals one
      // recorder over the whole fleet client-for-client.
      harnesses[static_cast<std::size_t>(s)]->set_extra_callbacks({
          .on_link_up =
              [&rec, &sim = bed.sim](core::VirtualInterface& vif) {
                rec.note_link_up(sim.now(), vif.mac().raw() >> 8);
              },
          .on_link_down =
              [&rec, &sim = bed.sim](core::VirtualInterface& vif) {
                rec.note_link_down(sim.now(), vif.mac().raw() >> 8);
              },
      });
      if (routed[static_cast<std::size_t>(s)].empty()) continue;
      // Routed specs carry their own streams; the injector's is never drawn.
      injectors[static_cast<std::size_t>(s)] =
          std::make_unique<fault::FaultInjector>(bed.sim, fault_master);
      fault::FaultInjector& injector =
          *injectors[static_cast<std::size_t>(s)];
      injector.attach_medium(bed.medium);
      for (auto& bundle : bed.aps()) {
        injector.add_ap(*bundle.ap, bundle.network.get());
      }
      injector.set_fault_observer(
          [&rec, &sim = bed.sim](const fault::FaultSpec&) {
            rec.note_fault(sim.now());
          });
      injector.arm_routed(std::move(routed[static_cast<std::size_t>(s)]));
    }
  }

  // Declare the clients' motion bound to the medium: every route above is a
  // constant-path-speed MobilityModel, so speed_mps is a true ceiling and
  // the grid may amortise mobile rebucketing against it (a pure wall-clock
  // optimisation — delivered sets, counters and RNG draws are unchanged).
  core::SpiderConfig spider_cfg = config.spider;
  spider_cfg.radio.max_speed_mps = config.speed_mps;
  base::StockConfig stock_cfg = config.stock;
  stock_cfg.stack.radio.max_speed_mps = config.speed_mps;

  // Assemble one driver stack per client, homed round-robin. Construction
  // and start order per rig is fixed (driver, manager, harness attach,
  // starts, adaptive), so one-client runs replay the same event sequence
  // to the byte. Each rig's config starts from the shared tuned copy and
  // has its mix profile applied on top — a default profile is the exact
  // identity, so mix-free scenarios are unchanged. The MAC block is the
  // client's deployment-global identity; in a formation the fabric places
  // the phy proxy on the owner of the boot-channel stripe.
  for (int c = 0; c < clients; ++c) {
    ClientRig& rig = rigs[static_cast<std::size_t>(c)];
    const int home = c % S;
    Testbed& bed = *beds[static_cast<std::size_t>(home)];
    DownloadHarness& harness = *harnesses[static_cast<std::size_t>(home)];
    const std::uint64_t block =
        Testbed::client_mac_block(static_cast<std::uint64_t>(c));
    const ClientProfile& profile = profiles[static_cast<std::size_t>(c)];
    auto position = [route = rig.route.get(), offset = rig.offset,
                     &sim = bed.sim] {
      return route->position_at(sim.now() + offset);
    };
    phy::Radio* radio = nullptr;
    switch (config.driver) {
      case DriverKind::kSpider: {
        core::SpiderConfig rig_cfg = spider_cfg;
        profile.apply(rig_cfg);
        rig.spider = std::make_unique<core::SpiderDriver>(
            bed.sim, bed.medium, block, position, rig_cfg);
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
        radio = &rig.spider->radio();
        break;
      }
      case DriverKind::kStock: {
        base::StockConfig rig_cfg = stock_cfg;
        profile.apply(rig_cfg);
        rig.stock = std::make_unique<base::StockWifiDriver>(
            bed.sim, bed.medium, block, position, rig_cfg, bed.server_ip());
        harness.attach(*rig.stock);
        rig.stock->start();
        radio = &rig.stock->radio();
        break;
      }
      case DriverKind::kFatVap: {
        core::SpiderConfig rig_cfg = spider_cfg;
        profile.apply(rig_cfg);
        rig.fatvap = std::make_unique<base::FatVapDriver>(
            bed.sim, bed.medium, block, position, rig_cfg, config.fatvap);
        rig.manager =
            std::make_unique<core::LinkManager>(*rig.fatvap, bed.server_ip());
        harness.attach(*rig.manager);
        rig.fatvap->start();
        rig.manager->start();
        radio = &rig.fatvap->radio();
        break;
      }
    }
    if (fabric) {
      fabric->register_client(
          home, *radio,
          [route = rig.route.get(), offset = rig.offset](Time t) {
            return route->position_at(t + offset);
          },
          config.speed_mps, block, block + 0x100ULL);
    }
  }

  if (bus) {
    // Place the initial proxies, run the formation in lockstep windows,
    // then flush in-flight exchange (forwarded deliveries from the final
    // window).
    bus->drain_initial();
    result.completed = bus->run_until(config.duration, cancel);
    bus->drain_final();
  } else {
    sim::Simulator& sim = beds[0]->sim;
    if (cancel != nullptr) sim.set_cancel_token(cancel);
    sim.run_until(config.duration);
    result.completed = !sim.interrupted();
  }

  // Harvest in global client order: join logs concatenate, switch counts
  // sum, latency accumulators merge (parallel Welford). An interrupted run
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

  // Timelines close at their own shard's clock: an interrupted run closes
  // at the interruption point (a formation stops at a window boundary; the
  // tripped shard may be mid-window), so connectivity/throughput fractions
  // describe the simulated span, not the never-reached configured horizon.
  // They merge into the run's single goodput timeline; resilience counters
  // exact-sum (onset accounting ran on one shard per spec, outage
  // bookkeeping is per client, and the TTR vector is (time, client)-ordered).
  ThroughputRecorder merged(config.metrics_bin);
  ResilienceRecorder resilience_total;
  for (int s = 0; s < S; ++s) {
    recorders[static_cast<std::size_t>(s)]->finalize(
        beds[static_cast<std::size_t>(s)]->sim.now());
    merged.merge(*recorders[static_cast<std::size_t>(s)]);
    resilience_total.merge(resilience[static_cast<std::size_t>(s)]);
  }
  result.avg_throughput_kBps = merged.average_throughput_kBps();
  result.connectivity = merged.connectivity_fraction();
  result.connection_durations = Cdf(merged.connection_durations());
  result.disruption_durations = Cdf(merged.disruption_durations());
  result.instantaneous_kBps = Cdf(merged.instantaneous_kBps());
  result.total_bytes = merged.total_bytes();
  result.faults_injected = resilience_total.faults_injected();
  result.outages = resilience_total.outages();
  result.recoveries = resilience_total.recoveries();
  result.recovery_times = resilience_total.time_to_recover();
  digest_join_log(result);

  // Each shard's simulator and medium records merge by their declared
  // shard rules (sim::PerfCounters); the coordinator then stamps the
  // formation counters and the wall clock once.
  for (int s = 0; s < S; ++s) {
    result.perf.merge_shard(sims[static_cast<std::size_t>(s)]->perf());
    result.perf.merge_shard(mediums[static_cast<std::size_t>(s)]->perf());
  }
  result.perf.shards = width;
  if (bus) {
    result.perf.shard_windows = bus->windows_run();
    result.perf.shard_messages = bus->messages_sent();
    result.perf.shard_migrations = fabric->migrations();
    for (int s = 0; s < S; ++s) {
      const sim::ShardedSimulator::ShardTime t = bus->shard_time(s);
      result.perf.shard_busy_s[static_cast<std::size_t>(s)] = t.busy_s;
      result.perf.shard_wait_s[static_cast<std::size_t>(s)] = t.wait_s;
      result.perf.shard_drain_s[static_cast<std::size_t>(s)] = t.drain_s;
    }
  }
  result.perf.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (!tracers.empty()) {
    // The traced export view: every shard's flight-recorder metrics merged
    // like pooled runs (counters sum, gauges max), plus the record's
    // exported counters. Every shard's recorder is kept, in shard order.
    for (int s = 0; s < S; ++s) {
      sims[static_cast<std::size_t>(s)]->set_tracer(nullptr);
      result.metrics.merge(tracers[static_cast<std::size_t>(s)]->metrics());
    }
    result.perf.for_each_metric(
        [&metrics = result.metrics](const std::string& name, double value,
                                    bool gauge) {
          if (gauge) {
            metrics.gauge(name, value);
          } else {
            metrics.count(name, value);
          }
        });
    result.traces.assign(tracers.begin(), tracers.end());
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
