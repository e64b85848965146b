#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "baseline/fatvap.hpp"
#include "baseline/stock_wifi.hpp"
#include "core/config.hpp"
#include "core/adaptive.hpp"
#include "core/link_manager.hpp"
#include "fault/fault.hpp"
#include "mobility/deployment.hpp"
#include "trace/client_profile.hpp"
#include "trace/impairment.hpp"
#include "net/dhcp_server.hpp"
#include "obs/metrics.hpp"
#include "sim/cancel.hpp"
#include "sim/perf.hpp"
#include "trace/error.hpp"
#include "trace/testbed.hpp"
#include "util/stats.hpp"

namespace spider::obs {
class Tracer;
}  // namespace spider::obs

namespace spider::trace {

enum class DriverKind { kSpider, kStock, kFatVap };
const char* to_string(DriverKind k);

/// A full outdoor drive: the §4.1 vehicular experiment. One client drives
/// back and forth along a road lined with generated open APs, downloading
/// through every live connection. Everything the evaluation section varies
/// is a field here.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  Time duration = sec(1800);
  double speed_mps = 10.0;
  /// Independent vehicles sharing the medium and AP population. Along the
  /// road they start evenly staggered on the same loop; in a city each
  /// draws its own block tour. Every client runs its own driver stack and
  /// download harness; result fields pool across clients (join logs
  /// concatenate in client order, switches sum, latency stats merge).
  /// Ignored when `client_mix` is non-empty — the mix then defines both
  /// the population size and each client's behaviour profile.
  int clients = 1;
  /// Heterogeneous population: ordered (profile, count) slices expanded
  /// mix-order-major at rig assembly (see ClientProfile). Empty keeps the
  /// homogeneous `clients`-sized rig, byte-identical to pre-mix builds.
  ClientMix client_mix;

  /// Client count this config actually runs: the mix's total when one is
  /// given, `clients` otherwise (always >= 1).
  int resolved_clients() const;

  mob::DeploymentConfig deployment;
  /// When set, the AP population and client routes come from a 2-D city
  /// street mesh (mob::generate_city_deployment) instead of the single
  /// road. `deployment` is then ignored; `fixed_sites` still wins.
  std::optional<mob::CityGridConfig> city;
  /// When non-empty, replay these sites instead of generating a deployment
  /// (e.g. loaded from a wardriving CSV via mob::read_sites_csv_file).
  std::vector<mob::ApSite> fixed_sites;
  phy::PropagationConfig propagation;
  /// Unread; remains only for the benchmark driver's assignment to it.
  phy::NeighborIndex neighbor_index = phy::NeighborIndex::kGrid;
  net::DhcpServerConfig dhcp_server;
  Time backhaul_delay = msec(10);

  /// Intra-run parallelism (DESIGN.md §12): partition this one run's
  /// radios across `shards` event loops synchronized conservatively by
  /// channel/stripe ownership. 1 (default) is the plain serial engine,
  /// byte-identical to every pre-shard build; >1 runs a formation of that
  /// width, at most kMaxShards. Sharded results are deterministic per
  /// (config, seed, shards) but not byte-identical across different
  /// shard counts. Impairment sources (synthetic or
  /// trace-backed) run at any width: the schedule compiles into per-shard
  /// sub-schedules at partition time (DESIGN.md §12, fault routing across
  /// shards), with resilience counters exact-summing back to the serial
  /// injector's.
  int shards = 1;

  DriverKind driver = DriverKind::kSpider;
  core::SpiderConfig spider;     ///< stack for Spider and FatVAP
  base::StockConfig stock;
  base::FatVapConfig fatvap;
  /// Spider only: enable the §4.8 speed-adaptive mode controller (the
  /// scenario's constant speed feeds it; the initial mode comes from
  /// `spider.mode`).
  bool adaptive = false;
  core::AdaptiveConfig adaptive_config;

  /// What impairs this run: a synthetic fault timeline, a recorded
  /// channel-occupancy trace file, or an inline timeline (see
  /// ImpairmentSource). The resolved schedule is replayed against the
  /// assembled APs and medium (a "none" source = no injector,
  /// byte-identical to pre-fault runs). FaultSpec targets index into the
  /// scenario's AP list (mod its size).
  ImpairmentSource impairments;

  Time metrics_bin = sec(1);

  /// Structural sanity check, run before any simulator state is built:
  /// non-positive durations/rates/counts, a grid cell below the
  /// propagation range, malformed city geometry, degenerate channel mixes.
  /// Empty result means the config is runnable; callers that cannot
  /// continue (benches, the scenario server) surface the issues as an
  /// RunErrorKind::kInvalidConfig instead of asserting mid-run.
  std::vector<ConfigIssue> validate() const;
};

/// Everything the evaluation section reports about one run.
struct ScenarioResult {
  double avg_throughput_kBps = 0.0;
  double connectivity = 0.0;
  Cdf connection_durations;
  Cdf disruption_durations;
  Cdf instantaneous_kBps;
  std::vector<core::JoinRecord> join_log;
  std::uint64_t switches = 0;
  OnlineStats switch_latency_ms;
  std::uint64_t total_bytes = 0;

  // Join-log digests.
  std::size_t joins_attempted = 0;
  std::size_t assoc_succeeded = 0;
  std::size_t dhcp_succeeded = 0;
  std::size_t e2e_succeeded = 0;
  double dhcp_failure_fraction() const;  ///< of attempts that associated

  // Resilience digests (all zero when the scenario injected no faults).
  std::uint64_t faults_injected = 0;
  std::uint64_t outages = 0;
  std::uint64_t recoveries = 0;
  Cdf recovery_times;  ///< seconds, one sample per recovered outage

  /// False when the run was interrupted by a cancel/deadline token (the
  /// result then holds whatever was harvested at the interruption point —
  /// partial output, flushed, never silently discarded). Pooled results
  /// are complete only when every constituent run completed.
  bool completed = true;

  /// Engine counters for the run (events popped/cancelled, heap peak,
  /// wall-clock, sim rate). Wall-clock fields are host-dependent and never
  /// appear in deterministic bench output; see write_perf_csv.
  sim::PerfCounters perf;

  /// Derived per-layer counters from the flight recorder (empty unless the
  /// run was traced). Pooled results merge these: counters sum, gauges max.
  obs::MetricsRegistry metrics;
  /// The raw flight recorders, one per traced run, in seed order. Pooled
  /// results concatenate them so sinks can render every repetition.
  std::vector<std::shared_ptr<const obs::Tracer>> traces;
};

namespace detail {
/// The single scenario kernel every entrypoint funnels into: assembles a
/// placement of width S = config.shards, installs `tracer` when
/// given, runs, harvests. Width 1 is one testbed with no bus and no
/// fabric; wider formations run one testbed per shard, APs on their stripe
/// owners and clients homed round-robin with phy proxies on their channel
/// owners, advanced in lockstep by sim::ShardedSimulator (DESIGN.md §12).
/// When `cancel` is non-null the run polls it (DESIGN.md §11): a tripped
/// token interrupts the run and the partial result comes back with
/// `completed == false`. Completed runs are byte-identical with or without
/// a token installed.
ScenarioResult execute_scenario(const ScenarioConfig& config,
                                std::shared_ptr<obs::Tracer> tracer,
                                sim::CancelToken* cancel = nullptr);

/// Fills the join-log digests (attempted/assoc/dhcp/e2e) from result.join_log.
void digest_join_log(ScenarioResult& result);
}  // namespace detail

/// One untraced run. Forwarder over ScenarioRunner (trace/runner.hpp),
/// which adds repetitions, worker pools, and observer sinks.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Merges per-seed repetitions into one pooled result: scalar metrics are
/// averaged, counts summed, join logs and CDF samples concatenated in
/// order, perf counters and trace metrics merged. Shared by every averaged
/// entrypoint so serial and parallel sweeps agree to the byte.
ScenarioResult pool_results(const std::vector<ScenarioResult>& runs);

/// Averages `runs` seeded repetitions (seed, seed+1, ...) of the scalar
/// metrics and pools the join logs/CDF samples. Forwarder over
/// ScenarioRunner{repetitions = runs}.
ScenarioResult run_scenario_averaged(ScenarioConfig config, int runs);

}  // namespace spider::trace
