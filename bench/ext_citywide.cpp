// Extension bench: city-scale medium stress. Not a paper reproduction —
// the paper's testbed is one road (§4.1) — but the scaling story its
// deployment implies: a 2x2 km downtown street mesh carrying hundreds to
// thousands of open APs (channel mix 1/6/11 at 28/33/34%) and fleets of
// Spider clients touring the blocks.
//
// Each (APs x clients) cell runs once on the medium's spatial grid
// (DESIGN.md §10) and prints its table row and its digest: every
// simulation-visible count of the run. --smoke also reruns the sweep on a
// serial and an 8-wide pool and exits non-zero unless all three digest
// identically. Its stdout is committed as data/golden/ext_citywide_smoke.txt
// and compared by the citywide-smoke ctest, so a change to what any radio
// hears fails that test. The grid's equivalence to a brute-force scan of
// the channel is pinned in tests/test_spatial_index.cpp.
//
// Stdout is deterministic (counters and bytes only); wall-clock rates go
// to the JSON file (written only with --json PATH) and --perf-csv.
//
// --shards LIST (e.g. --shards 1,2,4) appends the intra-run parallelism
// axis (DESIGN.md §12): the heaviest cell of the mode runs in seven rounds,
// each one serial run followed by one run per listed shard count. Each
// shard count must reproduce its own digest exactly in every round, and
// shards=1 must match the serial engine byte for byte. A width's speedup
// is the median over rounds of serial wall / sharded wall. Speedups and
// each shard's busy/wait/drain split are host-dependent and go to the JSON
// and stderr only; --assert-shards turns the 4-shard speedup floor
// (>= 1.5x smoke, >= 2x full) into a hard failure when the process's
// affinity mask holds enough CPUs to express it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "mobility/deployment.hpp"

using namespace spider;

namespace {

struct Cell {
  std::size_t aps;
  int clients;
};

trace::ScenarioConfig city_config(const Cell& cell, Time duration) {
  trace::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.duration = duration;
  cfg.speed_mps = 10.0;
  cfg.clients = cell.clients;
  mob::CityGridConfig city;  // 2x2 km mesh, paper's channel mix
  city.aps_per_km2 = static_cast<double>(cell.aps) /
                     (city.width_m * city.height_m / 1e6);
  cfg.city = city;
  cfg.driver = trace::DriverKind::kSpider;
  cfg.spider = bench::tuned_spider();
  cfg.spider.mode = core::OperationMode::single(1);
  return cfg;
}

/// Every simulation-visible field of a run, printed per cell and compared
/// across worker counts and shard reruns. radio_candidates and the grid
/// counters are deliberately absent: they describe the search, not the
/// simulation.
std::string digest(const trace::ScenarioResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "popped=%llu tx=%llu fanout=%llu bytes=%llu joins=%zu "
                "e2e=%zu switches=%llu conn=%.9f",
                static_cast<unsigned long long>(r.perf.events_popped),
                static_cast<unsigned long long>(r.perf.frames_tx),
                static_cast<unsigned long long>(r.perf.frames_fanout),
                static_cast<unsigned long long>(r.total_bytes),
                r.joins_attempted, r.e2e_succeeded,
                static_cast<unsigned long long>(r.switches), r.connectivity);
  return buf;
}

/// Each shard's wall-clock split (ShardedSimulator::shard_time), by phase.
struct ShardPhase {
  const char* name;
  sim::PerShardSeconds sim::PerfCounters::*seconds;
};
constexpr ShardPhase kShardPhases[] = {
    {"busy_s", &sim::PerfCounters::shard_busy_s},
    {"wait_s", &sim::PerfCounters::shard_wait_s},
    {"drain_s", &sim::PerfCounters::shard_drain_s}};

/// One phase of each shard's split, in shard order joined by `sep`; empty
/// for a serial run.
std::string shard_phase_list(const trace::ScenarioResult& r,
                             const ShardPhase& phase, const char* sep) {
  std::string out;
  if (r.perf.shards < 2) return out;
  char buf[32];
  for (std::size_t s = 0; s < r.perf.shards; ++s) {
    std::snprintf(buf, sizeof buf, "%s%.4f", s == 0 ? "" : sep,
                  (r.perf.*phase.seconds)[s]);
    out += buf;
  }
  return out;
}

/// "; busy_s 0.1012/0.0981 wait_s ... drain_s ..." for stderr diagnostics.
std::string shard_time_split(const trace::ScenarioResult& r) {
  std::string out;
  for (const ShardPhase& phase : kShardPhases) {
    const std::string list = shard_phase_list(r, phase, "/");
    if (list.empty()) return "";
    out += std::string(out.empty() ? ";" : "") + " " + phase.name + " " + list;
  }
  return out;
}

/// "\"busy_s\": [..], \"wait_s\": [..], \"drain_s\": [..]" for the JSON.
std::string shard_time_json(const trace::ScenarioResult& r) {
  std::string out;
  for (const ShardPhase& phase : kShardPhases) {
    out += std::string(out.empty() ? "" : ", ") + "\"" + phase.name +
           "\": [" + shard_phase_list(r, phase, ", ") + "]";
  }
  return out;
}

double candidates_per_tx(const trace::ScenarioResult& r) {
  return r.perf.frames_tx == 0
             ? 0.0
             : static_cast<double>(r.perf.radio_candidates) /
                   static_cast<double>(r.perf.frames_tx);
}

}  // namespace

int main(int argc, char** argv) {
  // Valueless flags are stripped before the declarative parser (whose
  // flags all take values).
  bool smoke = false;
  bool assert_shards = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string_view(argv[i]) == "--assert-shards") {
      assert_shards = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string json_path;
  std::vector<int> shard_counts;
  auto cli = bench::parse_sweep_cli(
      static_cast<int>(args.size()), args.data(),
      {{"--json", "PATH",
        "write per-cell wall-clock metrics as JSON (none unless given)",
        [&json_path](const std::string& v) { json_path = v; }},
       {"--shards", "LIST",
        "comma-separated shard counts for the intra-run parallelism axis",
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

  const std::vector<Cell> cells =
      smoke ? std::vector<Cell>{{200, 8}, {1000, 8}}
            : std::vector<Cell>{{200, 8},  {200, 64},  {1000, 8},
                                {1000, 64}, {5000, 8}, {5000, 64}};
  const Time duration = smoke ? sec(4) : sec(12);

  bench::banner("ext: city-scale medium on the spatial grid",
                "extension; city mesh per §4.1 deployment statistics");

  // One run per cell; results come back in submission order.
  std::vector<trace::ScenarioConfig> configs;
  for (const Cell& cell : cells) configs.push_back(city_config(cell, duration));

  const auto results = cli.run(configs);

  bool ok = true;
  if (smoke) {
    // Scale determinism pin: the whole sweep must digest identically on a
    // serial and an 8-wide pool.
    auto opts1 = cli.sweep;
    opts1.jobs = 1;
    auto opts8 = cli.sweep;
    opts8.jobs = 8;
    const auto serial = trace::ScenarioRunner(opts1).run_many(configs);
    const auto wide = trace::ScenarioRunner(opts8).run_many(configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (digest(serial[i]) != digest(wide[i]) ||
          digest(serial[i]) != digest(results[i])) {
        std::printf("JOBS DIVERGENCE run %zu:\n  jobs=1 %s\n  jobs=8 %s\n",
                    i, digest(serial[i]).c_str(), digest(wide[i]).c_str());
        ok = false;
      }
    }
    std::printf("jobs {1,8} digest check: %s\n\n", ok ? "identical" : "DIFF");
  }

  TextTable table({"APs", "clients", "MB", "joins", "switches", "cand/tx"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const trace::ScenarioResult& r = results[c];
    table.add_row({std::to_string(cells[c].aps),
                   std::to_string(cells[c].clients),
                   TextTable::num(r.total_bytes / 1e6, 2),
                   std::to_string(r.joins_attempted),
                   std::to_string(r.switches),
                   TextTable::num(candidates_per_tx(r), 1)});
  }
  table.print(std::cout);
  std::printf("\n");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::printf("digest %zu APs x %d clients: %s\n", cells[c].aps,
                cells[c].clients, digest(results[c]).c_str());
  }
  std::printf("\ncitywide %s: %s\n", smoke ? "smoke" : "sweep",
              ok ? "PASS" : "FAIL");

  // Intra-run parallelism axis (DESIGN.md §12): heaviest cell of the
  // mode in kShardRounds rounds; each round runs the serial engine once,
  // then every listed width once. Stdout gets only deterministic fields
  // (bytes, joins, digest verdicts); wall-clock speedups go to stderr and
  // the JSON.
  struct ShardRow {
    int shards = 1;
    trace::ScenarioResult result;  ///< the median-speedup round's run
    double speedup = 1.0;          ///< median over rounds
    double speedup_lo = 1.0, speedup_hi = 1.0;
    bool deterministic = true;
    bool matches_serial = true;  // shards == 1 only: dispatch identity
  };
  std::vector<ShardRow> shard_rows;
  bool shards_ok = true;
  double serial_wall = 0.0;  // median over rounds
  if (!shard_counts.empty()) {
    // One serial run against one sharded run is a lottery on a noisy
    // host: the serial reference alone varies by ±20%. Each round's
    // serial run is the reference for the same round's widths, and a
    // width's speedup is the median of its per-round ratios.
    constexpr int kShardRounds = 7;
    const Cell shard_cell = smoke ? Cell{1000, 64} : Cell{5000, 64};
    const trace::ScenarioConfig base_cfg = city_config(shard_cell, duration);
    auto serial_opts = cli.sweep;
    serial_opts.jobs = 1;  // walls must not be inflated by pool neighbors
    const trace::ScenarioRunner shard_runner(serial_opts);
    std::vector<trace::ScenarioResult> serial_runs;
    std::vector<std::vector<trace::ScenarioResult>> width_runs(
        shard_counts.size());
    for (int round = 0; round < kShardRounds; ++round) {
      serial_runs.push_back(shard_runner.run_one(base_cfg));
      for (std::size_t w = 0; w < shard_counts.size(); ++w) {
        trace::ScenarioConfig cfg = base_cfg;
        cfg.shards = shard_counts[w];
        width_runs[w].push_back(shard_runner.run_one(cfg));
      }
    }
    const trace::ScenarioResult& baseline = serial_runs[0];
    std::vector<double> serial_walls;
    for (const auto& r : serial_runs) {
      serial_walls.push_back(r.perf.wall_seconds);
    }
    std::sort(serial_walls.begin(), serial_walls.end());
    serial_wall = serial_walls[serial_walls.size() / 2];

    std::printf("\nshard axis at %zu APs x %d clients (serial %s)\n",
                shard_cell.aps, shard_cell.clients, digest(baseline).c_str());
    TextTable shard_table(
        {"shards", "MB", "joins", "switches", "rerun", "vs serial"});
    for (std::size_t w = 0; w < shard_counts.size(); ++w) {
      const int s = shard_counts[w];
      const auto& runs = width_runs[w];
      ShardRow row;
      row.shards = s;
      std::size_t diverged = 0;
      for (std::size_t i = 1; i < runs.size() && diverged == 0; ++i) {
        if (digest(runs[i]) != digest(runs[0])) diverged = i;
      }
      row.deterministic = diverged == 0;
      row.matches_serial = s != 1 || digest(runs[0]) == digest(baseline);
      std::vector<std::pair<double, std::size_t>> ratios;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const double wall = runs[i].perf.wall_seconds;
        ratios.push_back(
            {wall > 0.0 ? serial_runs[i].perf.wall_seconds / wall : 0.0, i});
      }
      std::sort(ratios.begin(), ratios.end());
      row.speedup = ratios[ratios.size() / 2].first;
      row.speedup_lo = ratios.front().first;
      row.speedup_hi = ratios.back().first;
      row.result = runs[ratios[ratios.size() / 2].second];
      shards_ok = shards_ok && row.deterministic && row.matches_serial;
      shard_table.add_row(
          {std::to_string(s), TextTable::num(row.result.total_bytes / 1e6, 2),
           std::to_string(row.result.joins_attempted),
           std::to_string(row.result.switches),
           row.deterministic ? "identical" : "DIFF",
           s == 1 ? (row.matches_serial ? "identical" : "DIFF")
                  : std::string("-")});
      if (!row.deterministic) {
        std::printf("SHARD RERUN DIVERGENCE at %d shards:\n  %s\n  %s\n", s,
                    digest(runs[0]).c_str(), digest(runs[diverged]).c_str());
      }
      if (!row.matches_serial) {
        std::printf("SHARDS=1 DIVERGED FROM SERIAL:\n  serial  %s\n"
                    "  shards1 %s\n",
                    digest(baseline).c_str(), digest(runs[0]).c_str());
      }
      std::fprintf(stderr,
                   "shards=%d: wall %.3fs, speedup %.2fx (median of %d "
                   "rounds, %.2f-%.2fx)%s\n",
                   s, row.result.perf.wall_seconds, row.speedup, kShardRounds,
                   row.speedup_lo, row.speedup_hi,
                   shard_time_split(row.result).c_str());
      shard_rows.push_back(std::move(row));
    }
    shard_table.print(std::cout);
    std::printf("shard digest checks: %s\n", shards_ok ? "PASS" : "FAIL");

    // Speedup floor: only meaningful when this process can actually run
    // the formation in parallel — counted from its affinity mask, not the
    // CPUs online. Narrower hosts get the determinism checks and an
    // informational note.
    const double floor = smoke ? 1.5 : 2.0;
    const unsigned cores = bench::usable_cores();
    for (const ShardRow& row : shard_rows) {
      if (row.shards < 4) continue;
      if (cores < static_cast<unsigned>(row.shards)) {
        std::fprintf(stderr,
                     "shards=%d speedup gate skipped: %u core(s) available\n",
                     row.shards, cores);
        continue;
      }
      if (row.speedup < floor) {
        std::fprintf(stderr,
                     "SHARD SPEEDUP REGRESSION: %d shards %.2fx < %.1fx "
                     "(median of %d rounds)%s\n",
                     row.shards, row.speedup, floor, kShardRounds,
                     shard_time_split(row.result).c_str());
        if (assert_shards) shards_ok = false;
      }
    }
  }

  // Host-dependent rates live in files only.
  if (!json_path.empty()) {
    if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(out, "{\n  \"host\": %s,\n  \"cells\": [\n",
                   bench::host_json().c_str());
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const trace::ScenarioResult& r = results[c];
        std::fprintf(
            out,
            "    {\"aps\": %zu, \"clients\": %d, "
            "\"radio_candidates\": %llu, \"grid_cells_scanned\": %llu, "
            "\"grid_rebuckets\": %llu, \"frames_tx\": %llu, "
            "\"wall_s\": %.3f, \"sim_per_wall\": %.2f}%s\n",
            cells[c].aps, cells[c].clients,
            static_cast<unsigned long long>(r.perf.radio_candidates),
            static_cast<unsigned long long>(r.perf.grid_cells_scanned),
            static_cast<unsigned long long>(r.perf.grid_rebuckets),
            static_cast<unsigned long long>(r.perf.frames_tx),
            r.perf.wall_seconds, r.perf.sim_rate(),
            c + 1 == cells.size() ? "" : ",");
      }
      std::fprintf(out, "  ],\n  \"shard_cells\": [\n");
      for (std::size_t i = 0; i < shard_rows.size(); ++i) {
        const ShardRow& row = shard_rows[i];
        std::fprintf(
            out,
            "    {\"shards\": %d, \"serial_wall_s\": %.3f, \"wall_s\": %.3f, "
            "\"speedup\": %.2f, \"speedup_min\": %.2f, \"speedup_max\": "
            "%.2f, \"windows\": %llu, \"messages\": %llu, "
            "\"migrations\": %llu, %s, \"deterministic\": %s, "
            "\"matches_serial\": %s}%s\n",
            row.shards, serial_wall, row.result.perf.wall_seconds, row.speedup,
            row.speedup_lo, row.speedup_hi,
            static_cast<unsigned long long>(row.result.perf.shard_windows),
            static_cast<unsigned long long>(row.result.perf.shard_messages),
            static_cast<unsigned long long>(row.result.perf.shard_migrations),
            shard_time_json(row.result).c_str(),
            row.deterministic ? "true" : "false",
            row.matches_serial ? "true" : "false",
            i + 1 == shard_rows.size() ? "" : ",");
      }
      std::fprintf(out, "  ],\n  \"pass\": %s,\n  \"shard_pass\": %s\n}\n",
                   ok ? "true" : "false", shards_ok ? "true" : "false");
      std::fclose(out);
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    }
  }
  bench::maybe_write_perf_csv(cli, results);
  return ok && shards_ok ? 0 : 1;
}
