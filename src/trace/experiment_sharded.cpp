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
#include "trace/experiment.hpp"

namespace spider::trace::detail {

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
  // sources no longer pin the run to the serial engine: schedules compile
  // into per-shard sub-schedules at partition time (DESIGN.md §12).
  const bool city_scale =
      config.city.has_value() && config.resolved_clients() >= 16;
  return city_scale ? 4 : 1;
}

ScenarioResult execute_scenario_sharded(const ScenarioConfig& config,
                                        int shards,
                                        std::shared_ptr<obs::Tracer> tracer,
                                        sim::CancelToken* cancel) {
  const auto wall_start = std::chrono::steady_clock::now();
  const int S = std::max(2, shards);

  // Impairment timeline, resolved exactly as the serial engine does it
  // (same throw-on-error contract for direct callers that skipped
  // validate()). Routing happens later, once stripe ownership exists.
  fault::FaultSchedule faults;
  if (!config.impairments.none()) {
    std::string error;
    std::optional<fault::FaultSchedule> resolved =
        config.impairments.resolve(&error);
    if (!resolved) {
      throw std::runtime_error(std::string(config.impairments.field_name()) +
                               ": " + error);
    }
    faults = std::move(*resolved);
  }

  // The physical world (AP sites, client routes) comes from a master RNG
  // forked in exactly the serial order — deployment first, then one route
  // fork per city client — so a sharded run drives the serial run's world.
  Rng master(config.seed);
  Rng deploy_rng = master.fork();
  const auto sites =
      !config.fixed_sites.empty()
          ? config.fixed_sites
          : config.city
              ? mob::generate_city_deployment(*config.city, deploy_rng)
              : mob::generate_deployment(config.deployment, deploy_rng);

  // Channel/stripe ownership from the AP population.
  std::vector<std::pair<wire::Channel, double>> ap_xs;
  ap_xs.reserve(sites.size());
  for (const auto& site : sites) {
    ap_xs.push_back({site.channel, site.position.x});
  }
  phy::ShardPartition partition =
      phy::build_shard_partition(ap_xs, S, config.propagation.range_m);

  // One testbed per shard: its own simulator, medium, wired core and
  // download server. Event ids are seeded into disjoint per-shard spaces —
  // TCP connection ids travel across shards inside packets, so two home
  // shards must never mint the same id.
  std::vector<std::unique_ptr<Testbed>> beds;
  std::vector<phy::Medium*> mediums;
  std::vector<sim::Simulator*> sims;
  beds.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    TestbedConfig tb_config;
    tb_config.seed = shard_seed(config.seed, s);
    tb_config.propagation = config.propagation;
    tb_config.medium.neighbor_index = config.neighbor_index;
    tb_config.medium.grid_cell_m = config.grid_cell_m;
    beds.push_back(std::make_unique<Testbed>(tb_config));
    beds.back()->sim.seed_ids(static_cast<std::uint64_t>(s) << 48);
    mediums.push_back(&beds.back()->medium);
    sims.push_back(&beds.back()->sim);
  }
  // One flight recorder cannot span event loops; shard 0's timeline is
  // traced (metrics counters below still aggregate every medium).
  if (tracer) beds[0]->sim.set_tracer(tracer.get());

  sim::ShardedSimulator bus(sims, phy::kShardLookahead);
  phy::ShardFabric fabric(bus, mediums, std::move(partition),
                          [](wire::MacAddress mac) {
                            return mac.raw() >= Testbed::kClientMacBase;
                          });

  // APs go to their stripe owners, carrying their deployment-global index
  // so BSSIDs and subnets match the serial assembly. The owner/local-index
  // maps feed fault routing: an entity-scoped fault addressed to global AP
  // g must land on g's owner shard, re-targeted to g's position in that
  // shard's injector registration order.
  std::vector<int> ap_owner_shard(sites.size(), 0);
  std::vector<int> ap_local_index(sites.size(), 0);
  std::vector<int> ap_count(static_cast<std::size_t>(S), 0);
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
    const int owner =
        fabric.partition().owner(site.channel, site.position.x);
    beds[static_cast<std::size_t>(owner)]->add_ap(spec);
    ap_owner_shard[i] = owner;
    ap_local_index[i] = ap_count[static_cast<std::size_t>(owner)]++;
  }

  struct ClientRig {
    std::unique_ptr<mob::MobilityModel> route;
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
      Rng route_rng = master.fork();
      rig.route = std::make_unique<mob::WaypointLoop>(
          mob::city_route_waypoints(*config.city, route_rng),
          config.speed_mps);
    } else {
      rig.route = std::make_unique<mob::BackAndForthRoad>(
          config.deployment.road_length_m, config.speed_mps);
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

  // Shard-aware fault injection (DESIGN.md §12): the schedule compiles into
  // per-shard sub-schedules at partition time — channel faults to every
  // stripe owner of the channel, entity faults to the target AP's owner
  // shard, global faults to every AP-bearing shard — with one shard per
  // spec designated onset accountant so resilience counters exact-sum like
  // PerfCounters::merge_shard. Every injector posts its transitions at the
  // spec's own sim time before the lockstep starts, so replicated faults
  // flip state at the identical instant on every shard; all cross-shard
  // consequences still travel through the mailbox fabric.
  std::vector<ResilienceRecorder> resilience(static_cast<std::size_t>(S));
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors(
      static_cast<std::size_t>(S));
  if (!faults.empty()) {
    fault::FaultRouter router;
    router.shards = S;
    router.total_aps = sites.size();
    router.channel_owners = [&fabric](int channel) {
      int buf[phy::kMaxShards];
      const int n = fabric.partition().stripe_owners(
          static_cast<wire::Channel>(channel), buf);
      return std::vector<int>(buf, buf + n);
    };
    router.ap_owner = [&ap_owner_shard, &ap_local_index](std::size_t g) {
      return std::pair<int, int>(ap_owner_shard[g], ap_local_index[g]);
    };
    std::vector<std::vector<fault::RoutedFault>> routed =
        fault::partition_schedule(
            faults, Rng(fault::fault_stream_seed(config.seed)), router);
    for (int s = 0; s < S; ++s) {
      Testbed& bed = *beds[static_cast<std::size_t>(s)];
      ResilienceRecorder& rec = resilience[static_cast<std::size_t>(s)];
      // Each shard's harness reports its clients' link churn into the
      // shard-local recorder (every event fires on that shard's thread);
      // client identity keys the outage bookkeeping, so the post-run merge
      // equals the serial recorder client-for-client.
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
      // The ctor stream is never drawn for routed specs (each carries its
      // own); seed it from the shard for hygiene.
      injectors[static_cast<std::size_t>(s)] =
          std::make_unique<fault::FaultInjector>(
              bed.sim, Rng(shard_seed(config.seed, s)));
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

  core::SpiderConfig spider_cfg = config.spider;
  spider_cfg.radio.max_speed_mps = config.speed_mps;
  base::StockConfig stock_cfg = config.stock;
  stock_cfg.stack.radio.max_speed_mps = config.speed_mps;

  // Client stacks, in serial construction order, homed round-robin. The
  // MAC block is the client's deployment-global identity; the fabric
  // places the phy proxy on the owner of the boot-channel stripe.
  for (int c = 0; c < clients; ++c) {
    ClientRig& rig = rigs[static_cast<std::size_t>(c)];
    const int home = c % S;
    Testbed& bed = *beds[static_cast<std::size_t>(home)];
    DownloadHarness& harness = *harnesses[static_cast<std::size_t>(home)];
    const std::uint64_t block =
        Testbed::client_mac_block(static_cast<std::uint64_t>(c));
    auto position = [route = rig.route.get(), offset = rig.offset,
                     &sim = bed.sim] {
      return route->position_at(sim.now() + offset);
    };
    // Per-client profile on top of the shared tuned copy — the same
    // application point as the serial engine, so a mix-bearing config runs
    // the same per-client knobs whichever engine hosts it.
    const ClientProfile& profile = profiles[static_cast<std::size_t>(c)];
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
    fabric.register_client(
        home, *radio,
        [route = rig.route.get(), offset = rig.offset](Time t) {
          return route->position_at(t + offset);
        },
        config.speed_mps, block, block + 0x100ULL);
  }

  // Place the initial proxies, run the formation in lockstep windows, then
  // flush in-flight exchange (forwarded deliveries from the final window).
  bus.drain_initial();
  result.completed = bus.run_until(config.duration, cancel);
  bus.drain_final();

  // Harvest in global client order — identical bookkeeping to the serial
  // path, so pooled sweeps treat sharded and serial runs uniformly.
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

  // Shard timelines close at their own clocks (an interrupted formation
  // stops at a window boundary; the tripped shard may be mid-window) and
  // merge into the run's single goodput timeline.
  ThroughputRecorder merged(config.metrics_bin);
  for (int s = 0; s < S; ++s) {
    recorders[static_cast<std::size_t>(s)]->finalize(
        beds[static_cast<std::size_t>(s)]->sim.now());
    merged.merge(*recorders[static_cast<std::size_t>(s)]);
  }
  result.avg_throughput_kBps = merged.average_throughput_kBps();
  result.connectivity = merged.connectivity_fraction();
  result.connection_durations = Cdf(merged.connection_durations());
  result.disruption_durations = Cdf(merged.disruption_durations());
  result.instantaneous_kBps = Cdf(merged.instantaneous_kBps());
  result.total_bytes = merged.total_bytes();

  // Resilience counters exact-sum: onset accounting ran on one shard per
  // spec, outage bookkeeping is per client, and the merged TTR vector is
  // (time, client)-ordered — all byte-identical to the serial recorder.
  ResilienceRecorder resilience_total;
  for (int s = 0; s < S; ++s) {
    resilience_total.merge(resilience[static_cast<std::size_t>(s)]);
  }
  result.faults_injected = resilience_total.faults_injected();
  result.outages = resilience_total.outages();
  result.recoveries = resilience_total.recoveries();
  result.recovery_times = resilience_total.time_to_recover();
  digest_join_log(result);

  // Exact-sum aggregation: event totals add across shards, heap peaks add
  // (the heaps coexist), the simulated horizon is the max — summing it
  // would erase the speedup sim_per_wall exists to measure.
  for (int s = 0; s < S; ++s) {
    const sim::PerfCounters shard_perf =
        beds[static_cast<std::size_t>(s)]->sim.perf();
    if (s == 0) {
      result.perf = shard_perf;
    } else {
      result.perf.merge_shard(shard_perf);
    }
    beds[static_cast<std::size_t>(s)]->medium.add_perf(result.perf);
  }
  result.perf.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (tracer) {
    beds[0]->sim.set_tracer(nullptr);
    result.metrics = tracer->metrics();
    std::uint64_t cells = 0, rebuckets = 0;
    for (phy::Medium* m : mediums) {
      cells += m->grid_cells_scanned();
      rebuckets += m->grid_rebuckets();
    }
    result.metrics.count("phy.grid_cells_scanned", cells);
    result.metrics.count("phy.grid_rebuckets", rebuckets);
    result.traces.push_back(std::move(tracer));
  }
  // Formation diagnostics ride every sharded result, traced or not (the
  // perf CSV reads shard.width). Width is a gauge so pooled repetitions
  // keep the formation width instead of summing it; the volume counters
  // pool into fleet totals like every other counter.
  result.metrics.gauge("shard.width", static_cast<double>(S));
  result.metrics.count("shard.windows",
                       static_cast<double>(bus.windows_run()));
  result.metrics.count("shard.messages",
                       static_cast<double>(bus.messages_sent()));
  result.metrics.count("shard.migrations",
                       static_cast<double>(fabric.migrations()));
  // Where each shard's wall-clock went (busy / barrier wait / drain +
  // hooks, seconds). Host-dependent, so no stdout prints them. Counters:
  // pooled repetitions add the seconds of the same shard index.
  for (int s = 0; s < S; ++s) {
    const sim::ShardedSimulator::ShardTime t = bus.shard_time(s);
    const std::string prefix = "shard." + std::to_string(s) + ".";
    result.metrics.count(prefix + "busy_s", t.busy_s);
    result.metrics.count(prefix + "wait_s", t.wait_s);
    result.metrics.count(prefix + "drain_s", t.drain_s);
  }
  return result;
}

}  // namespace spider::trace::detail
