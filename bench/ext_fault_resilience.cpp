// Extension: resilience under injected infrastructure faults. The same
// deterministic fault timeline (AP blackouts/reboots, gateway flaps, DHCP
// stalls and NAK storms, channel burst loss) is replayed against Spider,
// FatVAP and the stock single-association stack at increasing intensity.
// Reported per cell: goodput, connectivity, outages suffered, recoveries
// achieved inside the run, and the time-to-recover distribution.
//
// Everything is seeded: the same binary printed twice produces identical
// bytes, which is the subsystem's determinism guarantee in executable form.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "fault/fault.hpp"

using namespace spider;

namespace {

/// Evenly spaced fault events cycling through the taxonomy and the AP
/// list. Pure arithmetic — no randomness lives in the schedule itself; the
/// Gilbert-Elliott dwells inside burst-loss faults come from the
/// injector's own forked (seeded) stream.
fault::FaultSchedule make_schedule(int events, Time duration) {
  fault::FaultSchedule s;
  if (events <= 0) return s;
  const Time step = duration / (events + 1);
  const wire::Channel channels[] = {1, 6, 11};
  for (int i = 0; i < events; ++i) {
    const Time at = step * (i + 1);
    switch (i % 6) {
      case 0: s.ap_reboot(at, sec(5), i); break;
      case 1: s.gateway_flap(at, sec(10), i); break;
      case 2: s.dhcp_pool_reset(at, i); break;
      case 3: s.ap_blackout(at, sec(8), i); break;
      case 4: s.burst_loss(at, sec(15), channels[i % 3], 0.85); break;
      case 5: s.dhcp_stall(at, sec(12), i); break;
    }
  }
  return s;
}

std::string ttr_cell(const Cdf& ttr) {
  if (ttr.empty()) return "-";
  return TextTable::num(ttr.quantile(0.5), 1) + "/" +
         TextTable::num(ttr.quantile(0.9), 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> shard_counts;
  const auto cli = bench::parse_sweep_cli(
      argc, argv,
      {{"--shards", "LIST",
        "comma-separated shard counts for the faulted formation axis",
        [&shard_counts](const std::string& v) {
          for (std::size_t at = 0; at < v.size();) {
            const std::size_t comma = std::min(v.find(',', at), v.size());
            const int n = std::atoi(v.substr(at, comma - at).c_str());
            if (n < 1 || n > 64) {
              std::fprintf(stderr, "--shards entries must lie in [1, 64]\n");
              std::exit(2);
            }
            shard_counts.push_back(n);
            at = comma + 1;
          }
        }}});
  bench::banner("Extension — resilience under injected faults",
                "blackouts, flaps, DHCP stalls/NAKs, burst loss; fixed seed");

  struct DriverRow {
    const char* label;
    trace::DriverKind kind;
    bool resilient;
  };
  const DriverRow drivers[] = {
      {"spider", trace::DriverKind::kSpider, true},
      {"spider-legacy", trace::DriverKind::kSpider, false},
      {"fatvap", trace::DriverKind::kFatVap, true},
      {"stock", trace::DriverKind::kStock, true},
  };
  const int intensities[] = {0, 8, 16, 32};
  const Time duration = sec(600);

  std::vector<trace::ScenarioConfig> configs;
  std::vector<const char*> row_labels;
  for (const auto& driver : drivers) {
    for (int events : intensities) {
      auto cfg = bench::town_scenario(/*seed=*/4242);
      cfg.duration = duration;
      // Dense, walking-pace deployment: continuous radio coverage, so
      // every outage in the table is fault-induced rather than a gap
      // between AP clusters on the 2.5 km drive.
      cfg.speed_mps = 1.5;
      cfg.deployment.road_length_m = 300;
      cfg.deployment.aps_per_km = 20;
      // Buggy residential gateways: after a reboot or pool wipe they drop
      // unknown REQUESTs silently instead of NAKing (common in the wild),
      // so a stale cached lease fails without any explicit signal.
      cfg.dhcp_server.nak_unknown_requests = false;
      cfg.driver = driver.kind;
      cfg.spider = bench::tuned_spider();
      cfg.spider.mode =
          core::OperationMode::equal_split({1, 6, 11}, msec(600));
      cfg.spider.resilient_link_policy = driver.resilient;
      cfg.impairments =
          trace::ImpairmentSource::synthetic(make_schedule(events, duration));
      configs.push_back(cfg);
      row_labels.push_back(driver.label);
    }
  }
  const auto results = cli.run(configs);

  TextTable table({"driver", "faults", "kB/s", "conn %", "outages",
                   "recovered", "ttr p50/p90 s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    table.add_row({row_labels[i], std::to_string(result.faults_injected),
                   TextTable::num(result.avg_throughput_kBps, 1),
                   TextTable::percent(result.connectivity),
                   std::to_string(result.outages),
                   std::to_string(result.recoveries),
                   ttr_cell(result.recovery_times)});
  }
  table.print(std::cout);
  bench::maybe_write_perf_csv(cli, results);
  std::printf(
      "\nOutages count windows with zero live links after first connect;\n"
      "a recovery is the next link-up. Spider's interface pool plus the\n"
      "hardened link policies (escalating blacklists, flap penalties,\n"
      "lease-cache invalidation, join watchdog) hold connectivity near\n"
      "100%% with at most a couple of seconds-long outages. The legacy\n"
      "policy (spider-legacy) keeps retrying stale cached leases against\n"
      "rebooted gateways that never NAK and re-picks flapping APs off a\n"
      "flat blacklist, so the same fault timeline costs it minutes-long\n"
      "outages. Single-association stacks rejoin quickly but every fault\n"
      "on the current AP is a guaranteed outage, so their count grows\n"
      "with intensity.\n");

  // Shard axis: the faulted spider cell re-run under the sharded engine.
  // A shorter timeline than the headline table keeps the tier-1 smoke leg
  // quick; the digest covers every resilience counter and the full TTR
  // sample vector, so a pass means the fault subsystem reproduced exactly
  // across engines, not statistically. Wall-clock speedups are
  // host-dependent and go to stderr only.
  bool shards_ok = true;
  if (!shard_counts.empty()) {
    const Time shard_duration = sec(120);
    auto base_cfg = bench::town_scenario(/*seed=*/4242);
    base_cfg.duration = shard_duration;
    base_cfg.speed_mps = 1.5;
    base_cfg.deployment.road_length_m = 300;
    base_cfg.deployment.aps_per_km = 20;
    base_cfg.dhcp_server.nak_unknown_requests = false;
    base_cfg.driver = trace::DriverKind::kSpider;
    base_cfg.spider = bench::tuned_spider();
    base_cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11},
                                                            msec(600));
    base_cfg.impairments =
        trace::ImpairmentSource::synthetic(make_schedule(8, shard_duration));

    auto serial_opts = cli.sweep;
    serial_opts.jobs = 1;  // walls must not be inflated by pool neighbors
    const trace::ScenarioRunner shard_runner(serial_opts);
    const auto baseline = shard_runner.run_one(base_cfg);
    const double serial_wall = baseline.perf.wall_seconds;

    std::printf("\nshard axis, faulted spider cell (serial: %llu faults, "
                "%llu outages, %llu recovered)\n",
                static_cast<unsigned long long>(baseline.faults_injected),
                static_cast<unsigned long long>(baseline.outages),
                static_cast<unsigned long long>(baseline.recoveries));
    TextTable shard_table({"shards", "faults", "outages", "recovered",
                           "kB/s", "rerun", "vs serial"});
    for (const int s : shard_counts) {
      trace::ScenarioConfig cfg = base_cfg;
      cfg.shards = s;
      const auto pair = shard_runner.run_many({cfg, cfg});
      const bool deterministic = bench::fault_digest(pair[0]) == bench::fault_digest(pair[1]);
      const bool matches_serial =
          s != 1 || bench::fault_digest(pair[0]) == bench::fault_digest(baseline);
      // Fault onsets are routed, never resampled: every width must inject
      // the same schedule the serial engine does.
      const bool same_faults =
          pair[0].faults_injected == baseline.faults_injected;
      shards_ok = shards_ok && deterministic && matches_serial && same_faults;
      shard_table.add_row(
          {std::to_string(s), std::to_string(pair[0].faults_injected),
           std::to_string(pair[0].outages),
           std::to_string(pair[0].recoveries),
           TextTable::num(pair[0].avg_throughput_kBps, 1),
           deterministic ? "identical" : "DIFF",
           s == 1 ? (matches_serial ? "identical" : "DIFF")
                  : (same_faults ? "same faults" : "DIFF")});
      if (!deterministic) {
        std::printf("SHARD RERUN DIVERGENCE at %d shards:\n  %s\n  %s\n", s,
                    bench::fault_digest(pair[0]).c_str(),
                    bench::fault_digest(pair[1]).c_str());
      }
      if (!matches_serial) {
        std::printf("SHARDS=1 DIVERGED FROM SERIAL:\n  serial  %s\n"
                    "  shards1 %s\n",
                    bench::fault_digest(baseline).c_str(),
                    bench::fault_digest(pair[0]).c_str());
      }
      if (!same_faults) {
        std::printf("FAULT COUNT DIVERGENCE at %d shards: %llu vs serial "
                    "%llu\n",
                    s, static_cast<unsigned long long>(pair[0].faults_injected),
                    static_cast<unsigned long long>(baseline.faults_injected));
      }
      const double speedup = pair[0].perf.wall_seconds > 0.0
                                 ? serial_wall / pair[0].perf.wall_seconds
                                 : 0.0;
      // Informational only: this cell has no speedup floor. A 300 m road
      // with 6 APs does ~0.1 µs of serial work per 192 µs window, so a
      // formation is all rendezvous and cannot beat the serial engine.
      // The sharded speedup is gated on the city cell (ext_citywide
      // --assert-shards).
      std::fprintf(stderr, "shards=%d: wall %.3fs, speedup %.2fx\n", s,
                   pair[0].perf.wall_seconds, speedup);
    }
    shard_table.print(std::cout);
    std::printf("shard digest checks: %s\n", shards_ok ? "PASS" : "FAIL");
  }
  return shards_ok ? 0 : 1;
}
