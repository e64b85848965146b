// Extension: trace-driven realism. A recorded channel-occupancy file (the
// checked-in sample by default, or any CSV/JSONL monitor dump via --trace)
// is ingested, compiled into a deterministic impairment schedule, and
// replayed against Spider, FatVAP and the stock single-association stack —
// each driver also runs the same scenario clean, so the table isolates
// what the recorded interference costs each stack.
//
// Determinism contract, checked in-process before the sweep: ingest ->
// serialize -> re-ingest must reproduce the identical timeline and compile
// to the identical fault schedule (the "same trace file + seed =
// byte-identical run" guarantee ext_trace_replay pins for CI). Everything
// on stdout is seeded and byte-identical across --jobs settings.
//
//   --trace PATH            occupancy recording to replay (CSV or JSONL)
//   --mapping NAME          interference | burst (occupancy -> loss model)
//   --smoke                 short deployment for the trace-replay-smoke test
//   --resilience-csv PATH   per-run resilience digest (deterministic CSV)
//   --write-sample PATH     re-emit the ingested trace in canonical CSV form
//   --shards LIST           re-run the replayed spider cell sharded: rerun
//                           determinism + width-invariant fault counts are
//                           asserted in-bench, speedup goes to stderr

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "bench/bench_util.hpp"
#include "tracein/occupancy.hpp"
#include "tracein/replay.hpp"

using namespace spider;

namespace {

std::string ttr_cell(const Cdf& ttr) {
  if (ttr.empty()) return "-";
  return TextTable::num(ttr.quantile(0.5), 1) + "/" +
         TextTable::num(ttr.quantile(0.9), 1);
}

/// The re-ingest pin: serialize the parsed timeline to canonical CSV,
/// parse that, and require both the timeline and its compiled schedule to
/// come back identical. Exits non-zero on divergence — this is the bench's
/// executable determinism guarantee, same spirit as ext_citywide's digest
/// pin.
void check_reingest(const tracein::OccupancyTimeline& timeline,
                    const tracein::ReplayOptions& replay) {
  std::istringstream round_trip(tracein::occupancy_to_csv(timeline));
  const tracein::OccupancyTimeline again = tracein::read_occupancy(round_trip);
  if (!(again == timeline)) {
    std::fprintf(stderr,
                 "ext_trace_replay: re-ingest MISMATCH (timeline differs "
                 "after serialize -> parse)\n");
    std::exit(1);
  }
  const fault::FaultSchedule a = tracein::compile_schedule(timeline, replay);
  const fault::FaultSchedule b = tracein::compile_schedule(again, replay);
  bool schedules_equal = a.size() == b.size();
  for (std::size_t i = 0; schedules_equal && i < a.size(); ++i) {
    const fault::FaultSpec& x = a.specs()[i];
    const fault::FaultSpec& y = b.specs()[i];
    schedules_equal = x.kind == y.kind && x.at == y.at &&
                      x.duration == y.duration && x.target == y.target &&
                      x.intensity == y.intensity &&
                      x.burst_mean == y.burst_mean && x.gap_mean == y.gap_mean;
  }
  if (!schedules_equal) {
    std::fprintf(stderr,
                 "ext_trace_replay: re-ingest MISMATCH (compiled schedules "
                 "differ)\n");
    std::exit(1);
  }
  std::printf("re-ingest determinism: ok (%zu samples -> %zu faults)\n\n",
              timeline.size(), a.size());
}

}  // namespace

int main(int argc, char** argv) {
  // The checked-in sample by default, resolved against the source tree so
  // the bench runs from any directory. Stdout names it relative to the
  // tree, so the output does not depend on where the tree lives.
  std::string trace_name = "data/traces/sample_occupancy.csv";
  std::string trace_path = std::string(SPIDER_SOURCE_DIR) + "/" + trace_name;
  std::string resilience_csv;
  std::string write_sample;
  tracein::ReplayOptions replay;
  bool smoke = false;
  std::vector<int> shard_counts;
  const auto cli = bench::parse_sweep_cli(
      argc, argv,
      {{"--trace", "PATH", "occupancy recording to replay (CSV or JSONL)",
        [&](const std::string& v) { trace_name = trace_path = v; }},
       {"--shards", "LIST",
        "comma-separated shard counts for the replayed-cell shard axis",
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
        }},
       {"--mapping", "NAME",
        "occupancy -> loss mapping: interference | burst",
        [&](const std::string& v) {
          if (!tracein::replay_mapping_from_string(v, &replay.mapping)) {
            std::fprintf(stderr,
                         "--mapping must be interference|burst, got '%s'\n",
                         v.c_str());
            std::exit(2);
          }
        }},
       {"--smoke", "0|1", "short deployment for the CI smoke test",
        [&](const std::string& v) { smoke = v != "0"; }},
       {"--resilience-csv", "PATH",
        "write the per-run resilience digest (deterministic CSV)",
        [&](const std::string& v) { resilience_csv = v; }},
       {"--write-sample", "PATH",
        "re-emit the ingested trace in canonical CSV form",
        [&](const std::string& v) { write_sample = v; }}});
  bench::banner("Extension — trace-driven channel-occupancy replay",
                "recorded occupancy -> impairment schedule; fixed seed");

  // Ingest once up front so a bad path or malformed row fails with its
  // line number before any simulation work (the scenario configs below
  // re-ingest through ImpairmentSource; validate() covers them too).
  std::string error;
  const std::optional<tracein::OccupancyTimeline> timeline =
      tracein::ingest_file(trace_path, &error);
  if (!timeline) {
    std::fprintf(stderr, "ext_trace_replay: %s: %s\n", trace_path.c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("trace: %zu samples, %zu channels, %.0f s span (%s)\n",
              timeline->size(), timeline->channels().size(),
              to_seconds(timeline->span()), trace_name.c_str());
  check_reingest(*timeline, replay);
  if (!write_sample.empty() &&
      !tracein::write_occupancy_csv(write_sample, *timeline)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 write_sample.c_str());
  }

  struct DriverRow {
    const char* label;
    trace::DriverKind kind;
  };
  const DriverRow drivers[] = {
      {"spider", trace::DriverKind::kSpider},
      {"fatvap", trace::DriverKind::kFatVap},
      {"stock", trace::DriverKind::kStock},
  };

  // The run must outlive the recording so every compiled window actually
  // plays; the dense walking-pace strip keeps coverage continuous, so the
  // table's outages are interference-induced, not deployment gaps.
  const Time duration =
      std::max(timeline->span() + sec(30), smoke ? sec(60) : sec(240));
  std::vector<trace::ScenarioConfig> configs;
  std::vector<std::string> row_labels;
  for (const auto& driver : drivers) {
    for (const bool replayed : {false, true}) {
      auto cfg = bench::town_scenario(/*seed=*/7117);
      cfg.duration = duration;
      cfg.speed_mps = 1.5;
      cfg.deployment.road_length_m = smoke ? 200 : 300;
      cfg.deployment.aps_per_km = 20;
      cfg.driver = driver.kind;
      cfg.spider = bench::tuned_spider();
      cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
      if (replayed) {
        cfg.impairments =
            trace::ImpairmentSource::trace_file(trace_path, replay);
      }
      configs.push_back(cfg);
      row_labels.push_back(std::string(driver.label) +
                           (replayed ? " +trace" : " clean"));
    }
  }
  const auto results = cli.run(configs);

  TextTable table({"driver", "kB/s", "conn %", "faults", "outages",
                   "recovered", "ttr p50/p90 s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    table.add_row({row_labels[i], TextTable::num(result.avg_throughput_kBps, 1),
                   TextTable::percent(result.connectivity),
                   std::to_string(result.faults_injected),
                   std::to_string(result.outages),
                   std::to_string(result.recoveries),
                   ttr_cell(result.recovery_times)});
  }
  table.print(std::cout);
  bench::maybe_write_perf_csv(cli, results);
  if (!resilience_csv.empty() &&
      !trace::write_resilience_summary_csv(resilience_csv, results)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 resilience_csv.c_str());
  }
  std::printf(
      "\nEach recorded occupancy window becomes one channel impairment\n"
      "(loss = occupancy under the interference mapping; Gilbert-Elliott\n"
      "dwells sized to the busy fraction under burst). Spider rides out\n"
      "the saturation burst on channel 6 by leaning on its concurrent\n"
      "links on 1/11; single-association stacks camped on the impaired\n"
      "channel take the full outage until their prober gives up.\n");

  // Shard axis: the replayed spider cell (configs[1]) re-run under the
  // sharded engine. Per width: rerun determinism on the full resilience
  // digest, shards=1 identity with the serial engine, and width-invariant
  // fault counts — the compiled trace schedule is routed, never resampled.
  // Cross-width byte equality is impossible by design (per-shard event
  // streams), so those three invariants are the asserted surface. Walls
  // are host-dependent and go to stderr only.
  bool shards_ok = true;
  if (!shard_counts.empty()) {
    const trace::ScenarioConfig& base_cfg = configs[1];
    auto serial_opts = cli.sweep;
    serial_opts.jobs = 1;  // walls must not be inflated by pool neighbors
    const trace::ScenarioRunner shard_runner(serial_opts);
    const auto baseline = shard_runner.run_one(base_cfg);
    const double serial_wall = baseline.perf.wall_seconds;

    std::printf("\nshard axis, spider +trace cell (serial: %llu faults, "
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
      const bool deterministic =
          bench::fault_digest(pair[0]) == bench::fault_digest(pair[1]);
      const bool matches_serial =
          s != 1 ||
          bench::fault_digest(pair[0]) == bench::fault_digest(baseline);
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
      std::fprintf(stderr, "shards=%d: wall %.3fs, speedup %.2fx\n", s,
                   pair[0].perf.wall_seconds, speedup);
      if (s >= 4 &&
          std::thread::hardware_concurrency() < static_cast<unsigned>(s)) {
        std::fprintf(stderr,
                     "shards=%d speedup informational: fewer cores than "
                     "shards on this host\n",
                     s);
      }
    }
    shard_table.print(std::cout);
    std::printf("shard digest checks: %s\n", shards_ok ? "PASS" : "FAIL");
  }
  return shards_ok ? 0 : 1;
}
