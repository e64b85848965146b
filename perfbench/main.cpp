// The repository's benchmark: one command per workload that builds its
// inputs from a seed, sets up, measures for a fixed wall budget, checks
// that every output is correct, and prints every metric with its unit. The
// last line of stdout is the result object; everything above it is for a
// human reader (host block, digests, latency percentiles).
//
//   perfbench --workload road-drive|city-fleet|serve-campaign --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// a separate invocation that does a fixed amount of work, times the public
// call into each layer as a span, reads the counters the program returns,
// and prints the per-layer metrics (README.md in this directory has the
// table). The two modes never share numbers.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "mobility/deployment.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/experiment.hpp"
#include "trace/runner.hpp"
#include "trace/scenario_json.hpp"
#include "tracein/occupancy.hpp"
#include "tracein/replay.hpp"
#include "util/json.hpp"

using namespace spider;
using perfbench::Clock;
using perfbench::seconds_since;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions (README.md explains why each exists).
// ---------------------------------------------------------------------------

constexpr const char* kTracePath = "data/traces/sample_occupancy.csv";
/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;
/// serve-campaign: one worker with two requests outstanding, so the
/// admission queue always holds one. A second worker made the host's noise
/// count twice: interleaved on the same host, 2 workers spread 16.5%
/// (IQR/median over 6 seeds) against 5.7% for 1.
constexpr std::size_t kWorkers = 1;
constexpr int kOutstanding = 2;
constexpr double kRequestDeadlineMs = 60000.0;
constexpr double kResponseTimeoutMs = 120000.0;

/// road-drive: the paper's §4.1 drive, one Spider client with 7 VAPs
/// splitting its time over channels 1/6/11, 2.5 km road, 10 m/s, 1800 s.
trace::ScenarioConfig road_unit(std::uint64_t seed) {
  trace::ScenarioConfig cfg = bench::town_scenario(seed);
  cfg.spider = bench::tuned_spider();
  cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
  return cfg;
}

/// city-fleet: 1000 APs on the 2x2 km city mesh (paper channel mix), 64
/// Spider clients all on channel 1, spatial grid index.
constexpr double kCityHorizonS = 8.0;
trace::ScenarioConfig city_unit(std::uint64_t seed) {
  trace::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = sec(kCityHorizonS);
  cfg.speed_mps = 10.0;
  cfg.clients = 64;
  mob::CityGridConfig city;
  city.aps_per_km2 = 1000.0 / (city.width_m * city.height_m / 1e6);
  cfg.city = city;
  cfg.neighbor_index = phy::NeighborIndex::kGrid;
  cfg.spider = bench::tuned_spider();
  cfg.spider.mode = core::OperationMode::single(1);
  return cfg;
}

/// The AP deployment every unit of a workload drives through: one town (or
/// city), built in set-up the way a user brings a site list, so its cost
/// lands in setup_s rather than in each timed unit. The town is a workload
/// constant, like the paper's one measured town; the workload seed picks
/// each unit's simulation seed. (Per-seed towns made the work per unit vary
/// by 8.5%, which swamped the steadiness budget.)
constexpr std::uint64_t kTownSeed = 0x70776eULL;
std::vector<mob::ApSite> build_deployment(const trace::ScenarioConfig& cfg,
                                          std::uint64_t seed) {
  Rng rng(seed);
  return cfg.city ? mob::generate_city_deployment(*cfg.city, rng)
                  : mob::generate_deployment(cfg.deployment, rng);
}

/// serve-campaign request mix: kMixSize distinct road scenarios. Slot j has
/// a fixed duration (120-291 sim-s, spread over every share) and driver
/// (spider/stock/fatvap cycling); only the scenario seeds come from the
/// workload seed, so every run offers the same amount of work. Shares by
/// j % 5: 0,1 plain (40%); 2 replay of the shipped occupancy trace (20%);
/// 3 synthetic AP blackout + DHCP stall timeline (20%); 4 client mix (20%).
constexpr std::size_t kMixSize = 20;
const char* mix_share(std::size_t j) {
  switch (j % 5) {
    case 2: return "trace-replay";
    case 3: return "blackout+dhcp-stall";
    case 4: return "client-mix";
    default: return "plain";
  }
}

std::vector<trace::ScenarioConfig> serve_mix(std::uint64_t seed) {
  std::vector<trace::ScenarioConfig> out;
  for (std::size_t j = 0; j < kMixSize; ++j) {
    const std::uint64_t h = perfbench::mix64(seed * 1000003ULL + j);
    trace::ScenarioConfig cfg = bench::town_scenario(h % 1000000007ULL + 1);
    cfg.duration = sec(120.0 + 9.0 * static_cast<double>((j * 7) % kMixSize));
    static constexpr trace::DriverKind kDrivers[] = {
        trace::DriverKind::kSpider, trace::DriverKind::kStock,
        trace::DriverKind::kFatVap};
    cfg.driver = kDrivers[j % 3];
    cfg.spider.num_interfaces = 7;
    cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
    switch (j % 5) {
      case 2:
        cfg.impairments = trace::ImpairmentSource::trace_file(kTracePath);
        break;
      case 3: {
        fault::FaultSchedule s;
        const int ap = static_cast<int>((h >> 16) % 25);
        s.ap_blackout(sec(30), sec(20), ap).dhcp_stall(sec(60), sec(30), ap + 1);
        cfg.impairments = trace::ImpairmentSource::synthetic(s);
        break;
      }
      case 4:
        cfg.client_mix = {
            {trace::ClientProfile::preset(
                 trace::ClientProfileKind::kAggressiveScanner), 1},
            {trace::ClientProfile::preset(
                 trace::ClientProfileKind::kStickyDevice), 1},
            {trace::ClientProfile::preset(trace::ClientProfileKind::kPsmPhone),
             1}};
        break;
      default: break;
    }
    out.push_back(cfg);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness bookkeeping.
// ---------------------------------------------------------------------------

/// Every unit counts as attempted; one that errors, is rejected, comes back
/// incomplete or fails a check counts as failed (fail_ratio's numerator).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;

  void unit(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
    }
  }
  /// A check that is not itself a unit (e.g. the server's own counters).
  void check(bool ok, const std::string& what) {
    if (!ok) {
      checks_ok = false;
      std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
    }
  }
};

/// The exact outputs a repeated seed must reproduce.
struct Digest {
  bool completed = false;
  std::uint64_t events = 0, frames_tx = 0, fanout = 0, bytes = 0;
  std::uint64_t joins = 0, assoc = 0, dhcp = 0, e2e = 0, switches = 0;
  std::uint64_t faults = 0, outages = 0;

  static Digest of(const trace::ScenarioResult& r) {
    Digest d;
    d.completed = r.completed;
    d.events = r.perf.events_popped;
    d.frames_tx = r.perf.frames_tx;
    d.fanout = r.perf.frames_fanout;
    d.bytes = r.total_bytes;
    d.joins = r.joins_attempted;
    d.assoc = r.assoc_succeeded;
    d.dhcp = r.dhcp_succeeded;
    d.e2e = r.e2e_succeeded;
    d.switches = r.switches;
    d.faults = r.faults_injected;
    d.outages = r.outages;
    return d;
  }
  std::string str() const {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "events=%llu frames=%llu fanout=%llu bytes=%llu joins=%llu "
                  "assoc=%llu dhcp=%llu e2e=%llu switches=%llu faults=%llu "
                  "outages=%llu",
                  (unsigned long long)events, (unsigned long long)frames_tx,
                  (unsigned long long)fanout, (unsigned long long)bytes,
                  (unsigned long long)joins, (unsigned long long)assoc,
                  (unsigned long long)dhcp, (unsigned long long)e2e,
                  (unsigned long long)switches, (unsigned long long)faults,
                  (unsigned long long)outages);
    return buf;
  }
  bool operator==(const Digest& o) const { return str() == o.str() && completed == o.completed; }
};

/// Digests per input seed: the first sighting is recorded and printed, every
/// later one must match it exactly. No golden values are committed.
class DigestBook {
 public:
  bool record(std::uint64_t seed, const std::string& digest) {
    auto [it, fresh] = first_.emplace(seed, digest);
    return fresh || it->second == digest;
  }
  void print(const char* label) const {
    for (const auto& [seed, digest] : first_) {
      std::printf("digest %s seed=%llu %s\n", label,
                  static_cast<unsigned long long>(seed), digest.c_str());
    }
  }

 private:
  std::map<std::uint64_t, std::string> first_;
};

std::string run_stats_json(const serve::RunStats& stats) {
  std::ostringstream os;
  stats.write_json(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Result output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

/// Host block, printed with every result: who measured, on what.
void print_host(const std::vector<double>& ref_ms) {
  std::ostringstream os;
  os << "host {\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":\"" << util::json_escape(cpu_model()) << "\""
     << ",\"compiler\":\"" << util::json_escape(__VERSION__) << "\""
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
     << ",\"host.ref_ms\":" << util::json_number(perfbench::median(ref_ms))
     << ",\"host.ref_samples\":" << ref_ms.size() << "}";
  std::printf("%s\n", os.str().c_str());
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  const bool correct = tally.failed == 0 && tally.checks_ok;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << metrics[i].name << "\":{\"value\":"
       << util::json_number(metrics[i].value) << ",\"unit\":\""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// In-process workloads: road-drive and city-fleet.
// ---------------------------------------------------------------------------

struct InProcessWorkload {
  const char* name;
  trace::ScenarioConfig (*make_unit)(std::uint64_t seed);
  /// Distinct unit seeds a timed run cycles through. City units vary far
  /// more in work per seed than drives through the fixed town, so a city
  /// run averages over more of them.
  std::size_t distinct;
  /// Inputs of the traced run (a prefix of the same seeds).
  std::size_t traced;
};

constexpr InProcessWorkload kRoadDrive{"road-drive", road_unit, 4, 4};
constexpr InProcessWorkload kCityFleet{"city-fleet", city_unit, 12, 1};

/// Builds the unit inputs (the deployment included) and validates them.
std::vector<trace::ScenarioConfig> build_units(const InProcessWorkload& w,
                                               std::uint64_t seed,
                                               Tally& tally) {
  std::vector<trace::ScenarioConfig> units;
  const std::vector<mob::ApSite> town =
      build_deployment(w.make_unit(1), kTownSeed);
  for (std::size_t i = 0; i < w.distinct; ++i) {
    const std::uint64_t unit_seed =
        perfbench::mix64(seed * 7919ULL + i) % 1000000007ULL + 1;
    trace::ScenarioConfig cfg = w.make_unit(unit_seed);
    cfg.fixed_sites = town;
    const std::vector<trace::ConfigIssue> issues = cfg.validate();
    tally.check(issues.empty(), std::string(w.name) + " invalid config: " +
                                    trace::join_issues(issues));
    units.push_back(std::move(cfg));
  }
  return units;
}

/// One set-up: the inputs, then the untimed warm-up unit, whose digest
/// joins the determinism check.
std::vector<trace::ScenarioConfig> setup_in_process(const InProcessWorkload& w,
                                                    std::uint64_t seed,
                                                    Tally& tally,
                                                    DigestBook& book) {
  std::vector<trace::ScenarioConfig> units = build_units(w, seed, tally);
  const trace::ScenarioRunner runner;
  const Digest d = Digest::of(runner.run_one(units.front()));
  tally.unit(d.completed && book.record(units.front().seed, d.str()),
             std::string(w.name) + " warm-up unit " + d.str());
  return units;
}

std::vector<Metric> measure_in_process(const InProcessWorkload& w,
                                       std::uint64_t seed, double seconds,
                                       Tally& tally) {
  DigestBook book;
  std::vector<double> setup_s;
  std::vector<trace::ScenarioConfig> units;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    units = setup_in_process(w, seed, tally, book);
    setup_s.push_back(seconds_since(t0));
  }

  // Cycle through the distinct units: at least one full pass, so every run
  // covers the same inputs, then on until the budget is spent.
  const trace::ScenarioRunner runner;
  std::vector<std::vector<double>> walls(units.size());
  std::vector<double> sim_s(units.size(), 0.0);
  std::size_t done = 0;
  const auto t0 = Clock::now();
  for (; done < units.size() || seconds_since(t0) < seconds; ++done) {
    const std::size_t i = done % units.size();
    const auto u0 = Clock::now();
    const trace::ScenarioResult r = runner.run_one(units[i]);
    const double wall = seconds_since(u0);
    const Digest d = Digest::of(r);
    const bool ok = d.completed && book.record(units[i].seed, d.str());
    tally.unit(ok, std::string(w.name) + " unit seed=" +
                       std::to_string(units[i].seed) + " " + d.str());
    walls[i].push_back(wall);
    sim_s[i] = r.perf.sim_seconds;
  }
  const double total_wall = seconds_since(t0);
  book.print(w.name);

  // Each input's median wall over its repeats: robust to the slow and fast
  // host phases a shared machine goes through within one run.
  double sim = 0.0, wall = 0.0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    sim += sim_s[i];
    wall += perfbench::median(walls[i]);
  }
  double sim_done = 0.0;
  for (std::size_t n = 0; n < done; ++n) sim_done += sim_s[n % units.size()];
  std::printf("%s: %zu units over %zu inputs in %.3f s, mean rate %.6g sim_s/s "
              "(setups %.3f/%.3f/%.3f s)\n",
              w.name, done, units.size(), total_wall, sim_done / total_wall,
              setup_s[0], setup_s[1], setup_s[2]);
  return {
      {"setup_s", perfbench::median(setup_s), "s"},
      {"sim_per_wall", sim / wall, "sim_s/s"},
      {"runs_per_s", static_cast<double>(units.size()) / wall, "1/s"},
  };
}

// ---------------------------------------------------------------------------
// serve-campaign: an in-process ScenarioServer driven over its socket.
// ---------------------------------------------------------------------------

struct ServeSetup {
  std::unique_ptr<serve::ScenarioServer> server;
  serve::LineClient client;
  std::string socket_path;
  std::vector<std::string> scenario_json;        ///< what goes on the wire
  std::vector<trace::ScenarioConfig> scenarios;  ///< the same, parsed back
  std::uint64_t runs_sent = 0;

  ~ServeSetup() { stop(); }
  void stop() {
    client.disconnect();
    if (server) {
      server->shutdown();
      server.reset();
      ::unlink(socket_path.c_str());
    }
  }
};

std::string run_request(const std::string& id, const std::string& scenario) {
  std::ostringstream os;
  os << "{\"op\":\"run\",\"id\":\"" << id
     << "\",\"deadline_ms\":" << kRequestDeadlineMs
     << ",\"scenario\":" << scenario << "}";
  return os.str();
}

/// One parsed response: the id it answers and, when the run succeeded and
/// completed, its RunStats in canonical JSON form.
struct Response {
  std::string id;
  std::optional<std::string> stats;
  double sim_seconds = 0.0;
};

Response parse_response(const std::string& line) {
  Response r;
  const std::optional<util::Json> json = util::Json::parse(line);
  if (!json || !json->is_object()) return r;
  if (const util::Json* id = json->find("id")) r.id = id->string_or("");
  const util::Json* ok = json->find("ok");
  const util::Json* result = json->find("result");
  if (ok == nullptr || !ok->bool_or(false) || result == nullptr) return r;
  const std::optional<serve::RunStats> stats = serve::RunStats::from_json(*result);
  if (!stats || !stats->completed) return r;
  r.stats = run_stats_json(*stats);
  r.sim_seconds = stats->sim_seconds;
  return r;
}

std::optional<util::Json> server_metrics(serve::LineClient& client) {
  if (!client.send_line("{\"op\":\"metrics\",\"id\":\"metrics\"}")) return std::nullopt;
  const std::optional<std::string> line = client.recv_line(kResponseTimeoutMs);
  if (!line) return std::nullopt;
  std::optional<util::Json> json = util::Json::parse(*line);
  if (!json || !json->is_object() || json->find("metrics") == nullptr) return std::nullopt;
  return *json->find("metrics");
}

double metric_or_zero(const util::Json& metrics, const char* name) {
  const util::Json* v = metrics.find(name);
  return v != nullptr ? v->number_or(0.0) : 0.0;
}

double rejected_count(const util::Json& metrics) {
  return metric_or_zero(metrics, "serve.rejected_overload") +
         metric_or_zero(metrics, "serve.rejected_invalid_config") +
         metric_or_zero(metrics, "serve.rejected_shutdown") +
         metric_or_zero(metrics, "serve.invalid_requests");
}

/// Parses each wire scenario back the way the server will, so the in-process
/// oracle runs exactly what the server runs.
void build_serve_inputs(const std::vector<trace::ScenarioConfig>& configs,
                        ServeSetup& s, Tally& tally) {
  for (const trace::ScenarioConfig& cfg : configs) {
    s.scenario_json.push_back(trace::scenario_to_json(cfg));
    trace::ScenarioConfig parsed;
    std::string error;
    const bool ok =
        trace::parse_scenario_json(s.scenario_json.back(), &parsed, &error);
    tally.check(ok, "scenario round trip: " + error);
    const std::vector<trace::ConfigIssue> issues = parsed.validate();
    tally.check(issues.empty(),
                "serve scenario invalid: " + trace::join_issues(issues));
    s.scenarios.push_back(std::move(parsed));
  }
}

bool start_server(ServeSetup& s, int index, Tally& tally) {
  s.socket_path = ".perfbench-" + std::to_string(::getpid()) + "-" +
                  std::to_string(index) + ".sock";
  ::unlink(s.socket_path.c_str());
  serve::ServerConfig config;
  config.socket_path = s.socket_path;
  config.workers = kWorkers;
  s.server = std::make_unique<serve::ScenarioServer>(config);
  std::string error;
  const bool started = s.server->start(&error) &&
                       s.client.connect_to(s.socket_path, &error);
  tally.check(started, "server start/connect: " + error);
  return started;
}

/// Serve answers per mix slot, from every set-up and the timed window; each
/// must equal the in-process run of that slot's scenario.
using Answers = std::vector<std::vector<std::string>>;

struct LoopStats {
  std::vector<double> latency_ms;
  double sim_s = 0.0;
  std::uint64_t ok_runs = 0;
  double wall_s = 0.0;
  bool alive = true;
};

/// Closed loop over one connection: kOutstanding requests in flight, cycling
/// through the mix; a new one is sent only when a response arrives, until at
/// least `min_requests` were sent and `seconds` have passed.
LoopStats closed_loop(ServeSetup& s, std::uint64_t min_requests, double seconds,
                      Answers& answers, Tally& tally) {
  struct InFlight {
    std::size_t slot;
    Clock::time_point sent;
  };
  std::map<std::string, InFlight> inflight;
  LoopStats out;
  std::uint64_t sent = 0;
  const auto t0 = Clock::now();
  const auto send = [&] {
    const std::size_t j = sent++ % s.scenarios.size();
    const std::string id = std::to_string(s.runs_sent++);
    inflight[id] = {j, Clock::now()};
    return s.client.send_line(run_request(id, s.scenario_json[j]));
  };
  const auto more = [&] {
    return sent < min_requests || seconds_since(t0) < seconds;
  };
  for (int i = 0; i < kOutstanding && out.alive && more(); ++i) out.alive = send();
  while (out.alive && !inflight.empty()) {
    const std::optional<std::string> line = s.client.recv_line(kResponseTimeoutMs);
    if (!line) {
      out.alive = false;
      break;
    }
    const auto now = Clock::now();
    const Response r = parse_response(*line);
    const auto it = inflight.find(r.id);
    if (it == inflight.end()) {
      tally.check(false, "response to unknown id: " + *line);
      continue;
    }
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(now - it->second.sent).count());
    tally.unit(r.stats.has_value(), "serve request " + r.id + ": " + *line);
    if (r.stats) {
      answers[it->second.slot].push_back(*r.stats);
      out.sim_s += r.sim_seconds;
      ++out.ok_runs;
    }
    inflight.erase(it);
    if (more()) out.alive = send();
  }
  out.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    tally.unit(false, "serve request lost with the connection");
  }
  return out;
}

/// Ingests the replay trace (the run must not depend on a broken input),
/// builds and validates the request mix, starts the server, connects, and
/// sends one untimed warm-up pass over the mix, so every request kind has
/// been served once before timing starts.
bool setup_serve(std::uint64_t seed, int index, ServeSetup& s, Answers& answers,
                 Tally& tally) {
  std::string error;
  tally.check(tracein::ingest_file(kTracePath, &error).has_value(),
              std::string("ingest ") + kTracePath + ": " + error);
  build_serve_inputs(serve_mix(seed), s, tally);
  if (!start_server(s, index, tally)) return false;
  return closed_loop(s, s.scenarios.size(), 0.0, answers, tally).alive;
}

std::vector<Metric> measure_serve(std::uint64_t seed, double seconds,
                                  Tally& tally) {
  std::vector<double> setup_s;
  Answers answers(kMixSize);
  auto setup = std::make_unique<ServeSetup>();
  for (int k = 0; k < kSetups; ++k) {
    setup = nullptr;  // the previous set-up's server stops before the next
    setup = std::make_unique<ServeSetup>();
    const auto t0 = Clock::now();
    const bool ok = setup_serve(seed, k, *setup, answers, tally);
    setup_s.push_back(seconds_since(t0));
    if (!ok) return {};
  }
  ServeSetup& s = *setup;
  // Rounds: one closed-loop pass over the whole mix each, until the budget
  // is spent, so every round offers identical work.
  LoopStats loop;
  std::vector<double> round_s;
  const auto t0 = Clock::now();
  do {
    const LoopStats round = closed_loop(s, s.scenarios.size(), 0.0, answers, tally);
    loop.alive = round.alive;
    loop.latency_ms.insert(loop.latency_ms.end(), round.latency_ms.begin(),
                           round.latency_ms.end());
    loop.sim_s += round.sim_s;
    loop.ok_runs += round.ok_runs;
    round_s.push_back(round.wall_s);
  } while (loop.alive && seconds_since(t0) < seconds);
  loop.wall_s = seconds_since(t0);
  double mix_sim = 0.0;
  for (const trace::ScenarioConfig& cfg : s.scenarios) mix_sim += to_seconds(cfg.duration);
  const double round_wall = perfbench::median(round_s);

  // The server's own accounting must agree with what was sent.
  if (loop.alive) {
    const std::optional<util::Json> m = server_metrics(s.client);
    tally.check(m.has_value(), "metrics op");
    if (m) {
      tally.check(metric_or_zero(*m, "serve.admitted") ==
                      static_cast<double>(s.runs_sent),
                  "serve.admitted != requests sent");
      tally.check(rejected_count(*m) == 0.0, "server rejected requests");
    }
  }
  s.stop();

  // Every answer must equal an in-process run of the same scenario, and
  // repeats of a scenario must agree with each other.
  const trace::ScenarioRunner runner;
  for (std::size_t j = 0; j < s.scenarios.size(); ++j) {
    if (answers[j].empty()) continue;
    const trace::RunOutcome oracle = runner.run_bounded(s.scenarios[j]);
    const std::string expect =
        oracle.ok() ? run_stats_json(serve::RunStats::from_result(*oracle.result))
                    : "error";
    std::size_t mismatched = 0;
    for (const std::string& got : answers[j]) mismatched += got != expect ? 1 : 0;
    if (mismatched > 0) {
      tally.failed += mismatched;
      std::fprintf(stderr,
                   "perfbench: FAIL scenario %zu (%s): %zu answers differ from "
                   "the in-process run\n  server  %s\n  oracle  %s\n",
                   j, mix_share(j), mismatched, answers[j].front().c_str(),
                   expect.c_str());
    }
    std::printf("digest serve-campaign scenario=%zu share=%s driver=%s "
                "answers=%zu %s\n",
                j, mix_share(j), trace::to_string(s.scenarios[j].driver),
                answers[j].size(), expect.c_str());
  }

  const double p50 = perfbench::quantile(loop.latency_ms, 0.5);
  const double p90 = perfbench::quantile(loop.latency_ms, 0.9);
  std::printf("serve-campaign: %zu rounds, %llu requests in %.3f s, mean rate "
              "%.6g sim_s/s, latency p50 %.3f ms p90 %.3f ms (n=%zu, %zu beyond "
              "p90) (setups %.3f/%.3f/%.3f s)\n",
              round_s.size(), static_cast<unsigned long long>(loop.ok_runs),
              loop.wall_s, loop.sim_s / loop.wall_s, p50, p90,
              loop.latency_ms.size(), loop.latency_ms.size() / 10, setup_s[0],
              setup_s[1], setup_s[2]);
  return {
      {"setup_s", perfbench::median(setup_s), "s"},
      {"sim_per_wall", mix_sim / round_wall, "sim_s/s"},
      {"runs_per_s", static_cast<double>(s.scenarios.size()) / round_wall, "1/s"},
  };
}

// ---------------------------------------------------------------------------
// Traced run: fixed work, per-layer spans and counters.
// ---------------------------------------------------------------------------

/// The workload's representative units for the traced run: a fixed list,
/// so every count it reports repeats exactly for a given seed.
std::vector<trace::ScenarioConfig> traced_units(const std::string& workload,
                                                std::uint64_t seed, Tally& tally) {
  if (workload == "serve-campaign") {
    ServeSetup inputs;
    build_serve_inputs(serve_mix(seed), inputs, tally);
    return inputs.scenarios;
  }
  InProcessWorkload w = workload == "road-drive" ? kRoadDrive : kCityFleet;
  w.distinct = w.traced;
  return build_units(w, seed, tally);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> measure_traced(const std::string& workload,
                                   std::uint64_t seed, Tally& tally,
                                   const std::string& spans_path,
                                   std::uint64_t* sink) {
  // Each stage span is the parent of the measurement spans inside it.
  perfbench::Spans spans;
  int stage = spans.open("stage.inputs");
  const std::vector<trace::ScenarioConfig> units =
      traced_units(workload, seed, tally);
  const trace::ScenarioConfig& first = units.front();
  spans.close(stage);

  // trace: validate() and the fixed cost of a run (assembly + harvest).
  stage = spans.open("stage.trace");
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kCalls = 200;
    auto span = spans.scope("trace.validate", kCalls);
    for (int i = 0; i < kCalls; ++i) *sink += first.validate().size();
  }
  trace::ScenarioConfig one_second = first;
  one_second.duration = sec(1);
  const trace::ScenarioRunner runner;
  for (int rep = 0; rep < 5; ++rep) {
    auto span = spans.scope("trace.run_one.1s");
    *sink += runner.run_one(one_second).perf.events_popped;
  }

  spans.close(stage);

  // mobility: the deployment generator the workload's units use.
  stage = spans.open("stage.mobility");
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kCalls = 20;
    auto span = spans.scope("mobility.deploy", kCalls);
    for (int i = 0; i < kCalls; ++i) {
      *sink += build_deployment(first, first.seed + rep * kCalls + i).size();
    }
  }

  spans.close(stage);

  // tracein: ingest and compile the shipped occupancy trace.
  stage = spans.open("stage.tracein");
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kCalls = 20;
    std::string error;
    std::optional<tracein::OccupancyTimeline> timeline;
    {
      auto span = spans.scope("tracein.ingest_file", kCalls);
      for (int i = 0; i < kCalls; ++i) {
        timeline = tracein::ingest_file(kTracePath, &error);
      }
    }
    tally.check(timeline.has_value(), "ingest: " + error);
    if (!timeline) break;
    auto span = spans.scope("tracein.compile_schedule", kCalls);
    for (int i = 0; i < kCalls; ++i) {
      *sink += tracein::compile_schedule(*timeline).size();
    }
  }

  // Each unit untraced and traced: counters, events/s, tracing overhead, and
  // the check that tracing does not perturb the simulation. The order
  // alternates (ABBA) so a host slowing down mid-run does not bias the
  // overhead; a single-unit workload gets a second, reversed pass.
  spans.close(stage);
  stage = spans.open("stage.units");
  trace::RunnerOptions traced_options;
  traced_options.tracing = true;
  const trace::ScenarioRunner traced_runner(traced_options);
  sim::PerfCounters perf;
  trace::ScenarioResult pooled_digests;
  obs::MetricsRegistry registry;
  double untraced_s = 0.0, traced_s = 0.0, untraced_events = 0.0;
  const std::size_t passes = units.size() == 1 ? 2 : 1;
  for (std::size_t n = 0; n < passes * units.size(); ++n) {
    const trace::ScenarioConfig& cfg = units[n % units.size()];
    std::optional<trace::ScenarioResult> plain, traced;
    for (int k = 0; k < 2; ++k) {
      if ((k + n) % 2 == 0) {
        auto span = spans.scope("trace.run_one");
        plain = runner.run_one(cfg);
        untraced_s += span.close();
      } else {
        auto span = spans.scope("trace.run_one.traced");
        traced = traced_runner.run_one(cfg);
        traced_s += span.close();
      }
    }
    untraced_events += static_cast<double>(plain->perf.events_popped);
    const Digest d = Digest::of(*plain);
    tally.unit(d.completed && d == Digest::of(*traced),
               workload + " traced unit seed=" + std::to_string(cfg.seed) +
                   " " + d.str() + " vs traced " + Digest::of(*traced).str());
    if (n >= units.size()) continue;  // counts come from the first pass
    std::printf("digest %s seed=%llu %s\n", workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), d.str().c_str());
    perf.merge(plain->perf);
    pooled_digests.total_bytes += plain->total_bytes;
    pooled_digests.joins_attempted += plain->joins_attempted;
    pooled_digests.assoc_succeeded += plain->assoc_succeeded;
    pooled_digests.dhcp_succeeded += plain->dhcp_succeeded;
    pooled_digests.e2e_succeeded += plain->e2e_succeeded;
    pooled_digests.switches += plain->switches;
    pooled_digests.faults_injected += plain->faults_injected;
    pooled_digests.outages += plain->outages;
    registry.merge(traced->metrics);
  }

  spans.close(stage);

  // Layer probes sized from the workload's own counters.
  stage = spans.open("stage.probes");
  const std::size_t depth = std::max<std::size_t>(perf.heap_peak, 1);
  const int cohort = static_cast<int>(
      std::lround(ratio(static_cast<double>(perf.radio_candidates),
                        static_cast<double>(perf.frames_tx)))) + 1;
  std::vector<double> queue_ns, delivery_ns;
  for (int rep = 0; rep < 3; ++rep) {
    {
      auto span = spans.scope("sim.EventQueue.hold", 2000000);
      queue_ns.push_back(perfbench::queue_probe_ns(depth, 2000000));
    }
    auto span = spans.scope("phy.Medium.transmit");
    delivery_ns.push_back(
        perfbench::delivery_probe_ns(cohort, std::max(200, 400000 / cohort)));
  }
  std::printf("probes: queue depth %zu, medium cohort %d\n", depth, cohort);

  // serve: ping round trip, and the fixed cost a request adds over the same
  // scenario run in-process (both at a 1 sim-s horizon, so host noise in
  // the simulation itself does not swamp the difference).
  spans.close(stage);
  stage = spans.open("stage.serve");
  ServeSetup probe;
  std::vector<trace::ScenarioConfig> probe_cfgs;
  for (std::size_t i = 0; i < 10; ++i) {
    trace::ScenarioConfig cfg = units[i % units.size()];
    cfg.duration = sec(1);
    cfg.fixed_sites.clear();  // the wire form carries no site list
    probe_cfgs.push_back(cfg);
  }
  build_serve_inputs(probe_cfgs, probe, tally);
  double admitted = 0.0, rejected = 0.0;
  std::vector<double> overhead_ms;
  if (start_server(probe, 0, tally)) {
    for (int i = 0; i < 200; ++i) {
      auto span = spans.scope("serve.ping");
      probe.client.send_line("{\"op\":\"ping\",\"id\":\"p\"}");
      tally.check(probe.client.recv_line(kResponseTimeoutMs).has_value(), "ping");
    }
    for (std::size_t i = 0; i < probe.scenarios.size(); ++i) {
      double inproc;
      {
        auto span = spans.scope("trace.run_bounded.1s");
        const trace::RunOutcome o = runner.run_bounded(probe.scenarios[i]);
        inproc = span.close();
        tally.unit(o.ok(), "in-process probe run");
      }
      auto span = spans.scope("serve.request.1s");
      probe.client.send_line(run_request("o", probe.scenario_json[i]));
      ++probe.runs_sent;
      const std::optional<std::string> line = probe.client.recv_line(kResponseTimeoutMs);
      const double latency = span.close();
      tally.unit(line && parse_response(*line).stats.has_value(), "serve probe run");
      overhead_ms.push_back((latency - inproc) * 1e3);
    }
    if (const std::optional<util::Json> m = server_metrics(probe.client)) {
      admitted = metric_or_zero(*m, "serve.admitted");
      rejected = rejected_count(*m);
      tally.check(admitted == static_cast<double>(probe.runs_sent),
                  "probe serve.admitted != requests sent");
    } else {
      tally.check(false, "probe metrics op");
    }
  }
  probe.stop();
  spans.close(stage);

  if (!spans_path.empty() && !spans.write_jsonl(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_path.c_str());
  }

  const double units_n = static_cast<double>(units.size());
  const auto& reg = registry;
  std::vector<Metric> m = {
      {"sim.events_per_s", ratio(untraced_events, untraced_s), "1/s"},
      {"sim.queue_ns", perfbench::median(queue_ns), "ns"},
      {"sim.events", static_cast<double>(perf.events_popped) / units_n, "count"},
      {"sim.cancel_frac", ratio(static_cast<double>(perf.events_cancelled),
                                static_cast<double>(perf.events_popped + perf.events_cancelled)), "ratio"},
      {"sim.heap_peak", static_cast<double>(perf.heap_peak), "count"},
      {"phy.candidates_per_tx", ratio(static_cast<double>(perf.radio_candidates),
                                      static_cast<double>(perf.frames_tx)), "count"},
      {"phy.cells_per_tx", ratio(static_cast<double>(perf.grid_cells_scanned),
                                 static_cast<double>(perf.frames_tx)), "count"},
      {"phy.rebuckets", static_cast<double>(perf.grid_rebuckets) / units_n, "count"},
      {"phy.useful_frac", ratio(static_cast<double>(perf.frames_fanout),
                                static_cast<double>(perf.radio_candidates)), "ratio"},
      {"phy.delivery_ns", perfbench::median(delivery_ns), "ns"},
      {"mobility.deploy_ms", spans.median_per_call("mobility.deploy") * 1e3, "ms"},
      {"mac.assoc_frac", ratio(static_cast<double>(pooled_digests.assoc_succeeded),
                               static_cast<double>(pooled_digests.joins_attempted)), "ratio"},
      {"net.dhcp_frac", ratio(static_cast<double>(pooled_digests.dhcp_succeeded),
                              static_cast<double>(pooled_digests.assoc_succeeded)), "ratio"},
      {"core.e2e_frac", ratio(static_cast<double>(pooled_digests.e2e_succeeded),
                              static_cast<double>(pooled_digests.dhcp_succeeded)), "ratio"},
      {"core.switches", static_cast<double>(pooled_digests.switches) / units_n, "count"},
      {"transport.bytes", static_cast<double>(pooled_digests.total_bytes) / units_n, "bytes"},
      {"fault.injected", static_cast<double>(pooled_digests.faults_injected) / units_n, "count"},
      {"fault.outages", static_cast<double>(pooled_digests.outages) / units_n, "count"},
      {"tracein.ingest_ms", spans.median_per_call("tracein.ingest_file") * 1e3, "ms"},
      {"tracein.compile_ms", spans.median_per_call("tracein.compile_schedule") * 1e3, "ms"},
      {"trace.validate_us", spans.median_per_call("trace.validate") * 1e6, "us"},
      {"trace.fixed_ms", spans.median_per_call("trace.run_one.1s") * 1e3, "ms"},
      {"serve.ping_us", spans.median_per_call("serve.ping") * 1e6, "us"},
      {"serve.overhead_ms", perfbench::median(overhead_ms), "ms"},
      {"serve.admitted", admitted, "count"},
      {"serve.rejected", rejected, "count"},
      {"obs.trace_overhead", ratio(traced_s, untraced_s), "ratio"},
  };
  // Flight-recorder counters per unit: one per layer's busiest kinds.
  for (const char* name :
       {"phy.impairment-set", "mac.assoc-start", "mac.assoc-ok",
        "net.dhcp-discover", "net.dhcp-bound", "core.slot-begin",
        "core.join-start", "core.link-up", "fault.fault-begin"}) {
    m.push_back({std::string("obs.") + name, reg.value(name) / units_n, "count"});
  }
  return m;
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload road-drive|city-fleet|serve-campaign "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int traced = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") traced = std::atoi(value);
    else if (flag == "--spans") spans_path = value;
    else return usage();
  }
  if (argc % 2 != 1 || seconds <= 0.0 || (traced != 0 && traced != 1) ||
      (workload != "road-drive" && workload != "city-fleet" &&
       workload != "serve-campaign")) {
    return usage();
  }

  std::uint64_t sink = 0;
  std::vector<double> ref_ms = perfbench::time_reference_kernel(5, &sink);
  Tally tally;
  std::vector<Metric> metrics;
  if (traced == 1) {
    metrics = measure_traced(workload, seed, tally, spans_path, &sink);
  } else if (workload == "serve-campaign") {
    metrics = measure_serve(seed, seconds, tally);
  } else {
    metrics = measure_in_process(
        workload == "road-drive" ? kRoadDrive : kCityFleet, seed, seconds, tally);
  }
  const std::vector<double> ref_end = perfbench::time_reference_kernel(5, &sink);
  ref_ms.insert(ref_ms.end(), ref_end.begin(), ref_end.end());
  if (traced == 1) {
    metrics.insert(metrics.begin(), {"host.ref_ms", perfbench::median(ref_ms), "ms"});
  } else {
    metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  }
  print_host(ref_ms);
  std::printf("checksum %llu\n", static_cast<unsigned long long>(sink));
  if (metrics.empty() || tally.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s produced no measurement\n", workload.c_str());
    return 1;
  }
  print_result(tally, metrics);
  return 0;
}
