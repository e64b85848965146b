// Robustness layer tests (DESIGN.md §11): config validation, bounded runs,
// the wire protocol, the resident scenario server, and the fault-tolerant
// campaign runner. Server tests talk to a real ScenarioServer over a Unix
// socket created in the test's working directory.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/runner.hpp"
#include "util/json.hpp"

namespace spider::serve {
namespace {

trace::ScenarioConfig quick_scenario(std::uint64_t seed,
                                     double duration_s = 10.0) {
  trace::ScenarioConfig config;
  config.seed = seed;
  config.duration = sec(duration_s);
  config.clients = 2;
  return config;
}

std::string stats_json(const RunStats& stats) {
  std::ostringstream os;
  stats.write_json(os);
  return os.str();
}

/// Short unique socket path (sun_path is 108 bytes; ctest runs tests from
/// the build tree, so a relative name is safest).
std::string unique_socket() {
  static int counter = 0;
  return "ts" + std::to_string(::getpid()) + "_" + std::to_string(++counter) +
         ".sock";
}

struct TestServer {
  explicit TestServer(ServerConfig config) : server(std::move(config)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }
  ~TestServer() { server.shutdown(/*cancel_inflight=*/true); }

  LineClient connect() {
    LineClient client;
    std::string error;
    EXPECT_TRUE(client.connect_to(server.config().socket_path, &error))
        << error;
    return client;
  }

  ScenarioServer server;
  bool started = false;
};

ServerConfig basic_config() {
  ServerConfig config;
  config.socket_path = unique_socket();
  config.workers = 2;
  config.queue_depth = 8;
  return config;
}

util::Json rpc(LineClient& client, const std::string& request,
               double timeout_ms = 30000.0) {
  EXPECT_TRUE(client.send_line(request));
  const std::optional<std::string> line = client.recv_line(timeout_ms);
  EXPECT_TRUE(line.has_value()) << "no response to: " << request;
  if (!line.has_value()) return util::Json();
  std::string error;
  const std::optional<util::Json> json = util::Json::parse(*line, &error);
  EXPECT_TRUE(json.has_value()) << error << " in: " << *line;
  return json.value_or(util::Json());
}

std::string error_kind(const util::Json& response) {
  const util::Json* error = response.find("error");
  if (error == nullptr) return "";
  const util::Json* kind = error->find("kind");
  return kind == nullptr ? "" : kind->string_or("");
}

// ---------------------------------------------------------------------------
// ScenarioConfig::validate
// ---------------------------------------------------------------------------

TEST(Validate, DefaultConfigIsValid) {
  EXPECT_TRUE(trace::ScenarioConfig{}.validate().empty());
}

TEST(Validate, RejectsNonPositiveDuration) {
  trace::ScenarioConfig config;
  config.duration = sec(0);
  const auto issues = config.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().field, "duration");
}

TEST(Validate, RejectsBadClientCountAndSpeed) {
  trace::ScenarioConfig config;
  config.clients = 0;
  config.speed_mps = -3.0;
  const auto issues = config.validate();
  EXPECT_GE(issues.size(), 2u);
}

TEST(Validate, RejectsZeroInterfacesForSpider) {
  trace::ScenarioConfig config;
  config.spider.num_interfaces = 0;
  EXPECT_FALSE(config.validate().empty());
  config.driver = trace::DriverKind::kStock;
  EXPECT_TRUE(config.validate().empty());  // stock ignores the fleet size
}

TEST(Validate, JoinIssuesMentionsEveryField) {
  trace::ScenarioConfig config;
  config.duration = sec(0);
  config.clients = 0;
  const std::string joined = trace::join_issues(config.validate());
  EXPECT_NE(joined.find("duration"), std::string::npos);
  EXPECT_NE(joined.find("clients"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ScenarioRunner::run_bounded
// ---------------------------------------------------------------------------

TEST(RunBounded, InvalidConfigYieldsStructuredError) {
  trace::ScenarioConfig config;
  config.duration = sec(0);
  const trace::RunOutcome outcome =
      trace::ScenarioRunner().run_bounded(config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error->kind, trace::RunErrorKind::kInvalidConfig);
  EXPECT_FALSE(outcome.result.has_value());
}

TEST(RunBounded, CompletedRunMatchesUnboundedByteForByte) {
  const trace::ScenarioConfig config = quick_scenario(11, 20.0);
  const trace::ScenarioRunner runner;
  const trace::ScenarioResult plain = runner.run_one(config);

  sim::CancelToken token;
  token.arm_deadline_after(std::chrono::minutes(10));  // generous
  const trace::RunOutcome bounded = runner.run_bounded(config, &token);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(stats_json(RunStats::from_result(plain)),
            stats_json(RunStats::from_result(*bounded.result)));
}

TEST(RunBounded, ExpiredDeadlineReturnsPartialResult) {
  const trace::ScenarioConfig config = quick_scenario(12, 100000.0);
  sim::CancelToken token;
  token.arm_deadline_after(std::chrono::milliseconds(30));
  const trace::RunOutcome outcome =
      trace::ScenarioRunner().run_bounded(config, &token);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error->kind, trace::RunErrorKind::kDeadlineExceeded);
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_FALSE(outcome.result->completed);
  EXPECT_LT(outcome.result->perf.sim_seconds, 100000.0);
}

TEST(RunBounded, PreCancelledTokenReportsCancelled) {
  sim::CancelToken token;
  token.request_cancel();
  const trace::RunOutcome outcome =
      trace::ScenarioRunner().run_bounded(quick_scenario(13), &token);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error->kind, trace::RunErrorKind::kCancelled);
}

// ---------------------------------------------------------------------------
// Wire protocol serde
// ---------------------------------------------------------------------------

TEST(Protocol, RunStatsRoundTripsExactly) {
  RunStats stats;
  stats.avg_throughput_kBps = 123.456789012345678;
  stats.connectivity = 1.0 / 3.0;
  stats.total_bytes = 987654321;
  stats.switches = 42;
  stats.switch_latency_ms.add(3.25);
  stats.switch_latency_ms.add(7.75);
  stats.sim_seconds = 1800.0;
  stats.events_popped = 123456789;

  const std::string once = stats_json(stats);
  const std::optional<util::Json> parsed = util::Json::parse(once);
  ASSERT_TRUE(parsed.has_value());
  const std::optional<RunStats> back = RunStats::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(once, stats_json(*back));  // byte-identical re-serialization
}

TEST(Protocol, ScenarioRoundTripsThroughWireForm) {
  trace::ScenarioConfig config = quick_scenario(99, 42.5);
  config.driver = trace::DriverKind::kFatVap;
  config.spider.num_interfaces = 3;
  const std::string wire = scenario_to_json(config);
  const std::optional<util::Json> parsed = util::Json::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  trace::ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(parse_scenario(*parsed, &back, &error)) << error;
  EXPECT_EQ(wire, scenario_to_json(back));
}

TEST(Protocol, ShardsRoundTripsAndBadValuesFailValidation) {
  trace::ScenarioConfig config = quick_scenario(7);
  config.shards = 4;
  const std::string wire = scenario_to_json(config);
  EXPECT_NE(wire.find("\"shards\":4"), std::string::npos);
  const std::optional<util::Json> parsed = util::Json::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  trace::ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(parse_scenario(*parsed, &back, &error)) << error;
  EXPECT_EQ(back.shards, 4);

  // A non-numeric shards value must surface as an invalid config, not
  // silently run some other formation.
  const std::optional<util::Json> bad =
      util::Json::parse(R"({"seed":1,"shards":"wide"})");
  ASSERT_TRUE(bad.has_value());
  trace::ScenarioConfig mangled;
  ASSERT_TRUE(parse_scenario(*bad, &mangled, &error)) << error;
  EXPECT_FALSE(mangled.validate().empty());
}

TEST(Protocol, UnknownScenarioKeyIsAnError) {
  // A typo, and knobs the scenario no longer has (the grid cell is always
  // range + slack, and the grid is the medium's only neighbor index).
  for (const std::string key :
       {"durationn_s", "grid_cell_m", "neighbor_index"}) {
    const std::optional<util::Json> json =
        util::Json::parse(R"({"seed":1,")" + key + R"(":30})");
    ASSERT_TRUE(json.has_value());
    trace::ScenarioConfig config;
    std::string error;
    EXPECT_FALSE(parse_scenario(*json, &config, &error));
    EXPECT_NE(error.find(key), std::string::npos);
  }
}

TEST(Protocol, ExtensionFreeConfigKeepsPreExtensionWireBytes) {
  // The declarative extensions must travel only when non-default: a
  // mix-free, impairment-free scenario serializes to the exact wire bytes
  // every pre-extension client and journal expects.
  const std::string wire = scenario_to_json(quick_scenario(3));
  EXPECT_EQ(wire.find("client_mix"), std::string::npos);
  EXPECT_EQ(wire.find("impairments"), std::string::npos);
}

TEST(Protocol, ClientMixRoundTripsThroughWireForm) {
  trace::ScenarioConfig config = quick_scenario(21);
  trace::ClientMixEntry laptops;
  laptops.profile = trace::ClientProfile::preset(
      trace::ClientProfileKind::kAggressiveScanner);
  laptops.count = 2;
  trace::ClientMixEntry handsets;
  handsets.profile =
      trace::ClientProfile::preset(trace::ClientProfileKind::kPsmPhone);
  handsets.profile.psm_duty = 0.25;  // a customized preset
  config.client_mix = {laptops, handsets};

  const std::string wire = scenario_to_json(config);
  const std::optional<util::Json> parsed = util::Json::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  trace::ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(parse_scenario(*parsed, &back, &error)) << error;
  EXPECT_EQ(wire, scenario_to_json(back));
  ASSERT_EQ(back.client_mix.size(), 2u);
  EXPECT_EQ(back.client_mix[0].count, 2);
  EXPECT_EQ(back.client_mix[0].profile.kind,
            trace::ClientProfileKind::kAggressiveScanner);
  EXPECT_DOUBLE_EQ(back.client_mix[1].profile.psm_duty, 0.25);
}

TEST(Protocol, SyntheticScheduleRoundTripsFaultSpecsExactly) {
  trace::ScenarioConfig config = quick_scenario(22);
  config.impairments.schedule.ap_blackout(sec(20), sec(5), 1);
  config.impairments.schedule.burst_loss(msec(2500), sec(3), 6, 0.7, msec(40),
                                         msec(160));

  const std::string wire = scenario_to_json(config);
  const std::optional<util::Json> parsed = util::Json::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  trace::ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(parse_scenario(*parsed, &back, &error)) << error;
  EXPECT_EQ(wire, scenario_to_json(back));
  ASSERT_EQ(back.impairments.schedule.size(), 2u);
  const fault::FaultSpec& burst = back.impairments.schedule.specs()[1];
  EXPECT_EQ(burst.kind, fault::FaultKind::kChannelBurstLoss);
  EXPECT_EQ(burst.at, msec(2500));
  EXPECT_EQ(burst.duration, sec(3));
  EXPECT_EQ(burst.target, 6);
  EXPECT_DOUBLE_EQ(burst.intensity, 0.7);
  EXPECT_EQ(burst.burst_mean, msec(40));
  EXPECT_EQ(burst.gap_mean, msec(160));
}

TEST(Protocol, TraceBackedImpairmentsRoundTripThroughWireForm) {
  trace::ScenarioConfig config = quick_scenario(23);
  tracein::ReplayOptions replay;
  replay.mapping = tracein::ReplayMapping::kBurst;
  replay.loss_scale = 0.8;
  replay.min_occupancy = 0.1;
  config.impairments =
      trace::ImpairmentSource::trace_file("traces/walk.csv", replay);
  {
    const std::string wire = scenario_to_json(config);
    const std::optional<util::Json> parsed = util::Json::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    trace::ScenarioConfig back;
    std::string error;
    ASSERT_TRUE(parse_scenario(*parsed, &back, &error)) << error;
    EXPECT_EQ(wire, scenario_to_json(back));
    EXPECT_EQ(back.impairments.kind, trace::ImpairmentSource::Kind::kTraceFile);
    EXPECT_EQ(back.impairments.trace_path, "traces/walk.csv");
    EXPECT_EQ(back.impairments.replay.mapping, tracein::ReplayMapping::kBurst);
    EXPECT_DOUBLE_EQ(back.impairments.replay.loss_scale, 0.8);
  }

  // Inline timelines carry non-representable timestamps through the
  // %.17g + rounding parse without walking a tick.
  tracein::OccupancyTimeline timeline;
  timeline.samples.push_back({msec(100), 6, 1.0 / 3.0});
  timeline.samples.push_back({Time{300000}, 11, 0.125});
  config.impairments = trace::ImpairmentSource::inline_timeline(timeline);
  {
    const std::string wire = scenario_to_json(config);
    const std::optional<util::Json> parsed = util::Json::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    trace::ScenarioConfig back;
    std::string error;
    ASSERT_TRUE(parse_scenario(*parsed, &back, &error)) << error;
    EXPECT_EQ(wire, scenario_to_json(back));
    EXPECT_TRUE(back.impairments.timeline == timeline);
  }
}

/// The parse error for `text`, or "" when it parses (extension error tests
/// assert the message names the offending field).
std::string scenario_parse_failure(const std::string& text) {
  const std::optional<util::Json> json = util::Json::parse(text);
  EXPECT_TRUE(json.has_value()) << text;
  if (!json.has_value()) return "";
  trace::ScenarioConfig config;
  std::string error;
  if (parse_scenario(*json, &config, &error)) return "";
  return error;
}

TEST(Protocol, ExtensionErrorsNameTheOffendingField) {
  EXPECT_EQ(scenario_parse_failure(R"({"client_mix":[{"count":"two"}]})"),
            "client_mix[0].count must be a number");
  EXPECT_EQ(scenario_parse_failure(R"({"client_mix":[{"profile":"gamer"}]})"),
            "client_mix[0].profile must be default|aggressive-scanner|"
            "sticky-device|psm-phone");
  EXPECT_EQ(scenario_parse_failure(R"({"client_mix":[{"color":1}]})"),
            "unknown client_mix[0] key 'color'");
  EXPECT_EQ(scenario_parse_failure(R"({"impairments":{"kind":"weird"}})"),
            "impairments.kind must be synthetic|trace-file|inline-timeline");
  EXPECT_EQ(
      scenario_parse_failure(R"({"impairments":{"kind":"synthetic","path":"x"}})"),
      "impairments.path only applies to kind 'trace-file'");
  EXPECT_EQ(
      scenario_parse_failure(
          R"({"impairments":{"kind":"synthetic","replay":{}}})"),
      "impairments.replay only applies to trace-backed kinds");
  EXPECT_EQ(
      scenario_parse_failure(
          R"({"impairments":{"kind":"trace-file","path":"x","replay":{"mapping":"maybe"}}})"),
      "impairments.replay.mapping must be interference|burst");
  EXPECT_EQ(
      scenario_parse_failure(
          R"({"impairments":{"kind":"synthetic","schedule":[{"kind":"meteor-strike"}]}})"),
      "impairments.schedule[0].kind is not a known fault kind");
  EXPECT_EQ(
      scenario_parse_failure(
          R"({"impairments":{"kind":"inline-timeline","samples":[[1,6]]}})"),
      "impairments.samples[0] must be [t_s, channel, occupancy] numbers");
  EXPECT_EQ(scenario_parse_failure(R"({"impairments":{"kind":"synthetic","x":1}})"),
            "unknown impairments key 'x'");
}

TEST(Protocol, OnlineStatsMomentsReconstructExactly) {
  OnlineStats a;
  for (int i = 0; i < 100; ++i) a.add(0.1 * i * (i % 7 ? 1.0 : -1.0));
  const OnlineStats b = OnlineStats::from_moments(
      a.count(), a.mean(), a.m2(), a.min(), a.max(), a.sum());
  OnlineStats merged_a = a;
  merged_a.merge(a);
  OnlineStats merged_b = b;
  merged_b.merge(a);
  EXPECT_EQ(merged_a.mean(), merged_b.mean());
  EXPECT_EQ(merged_a.m2(), merged_b.m2());
  EXPECT_EQ(merged_a.sum(), merged_b.sum());
}

// ---------------------------------------------------------------------------
// Server protocol behaviour
// ---------------------------------------------------------------------------

TEST(Server, PingPongAndMetrics) {
  TestServer ts(basic_config());
  LineClient client = ts.connect();
  const util::Json pong = rpc(client, R"({"op":"ping","id":"p1"})");
  EXPECT_TRUE(pong.find("pong") != nullptr);
  const util::Json* id = pong.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->string_or(""), "p1");

  const util::Json metrics = rpc(client, R"({"op":"metrics","id":"m"})");
  const util::Json* registry = metrics.find("metrics");
  ASSERT_NE(registry, nullptr);
  const util::Json* requests = registry->find("serve.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->number_or(0.0), 1.0);
}

TEST(Server, MalformedAndUnknownRequestsGetStructuredErrors) {
  TestServer ts(basic_config());
  LineClient client = ts.connect();
  EXPECT_EQ(error_kind(rpc(client, "this is not json")), "invalid-request");
  EXPECT_EQ(error_kind(rpc(client, R"({"op":"frobnicate","id":"x"})")),
            "invalid-request");
  EXPECT_EQ(error_kind(rpc(client, R"({"op":"run","id":"y"})")),
            "invalid-request");  // missing scenario
  EXPECT_EQ(
      error_kind(rpc(
          client, R"({"op":"run","id":"z","scenario":{"warp_factor":9}})")),
      "invalid-request");  // unknown scenario key
  // The connection survives every rejection.
  EXPECT_TRUE(rpc(client, R"({"op":"ping","id":"still-alive"})")
                  .find("pong") != nullptr);
}

TEST(Server, InvalidConfigSurfacesOverTheWire) {
  TestServer ts(basic_config());
  LineClient client = ts.connect();
  const util::Json response = rpc(
      client, R"({"op":"run","id":"bad","scenario":{"seed":1,"clients":0}})");
  EXPECT_EQ(error_kind(response), "invalid-config");
}

TEST(Server, RunMatchesInProcessRunnerByteForByte) {
  TestServer ts(basic_config());
  LineClient client = ts.connect();
  const trace::ScenarioConfig config = quick_scenario(21, 30.0);
  const util::Json response =
      rpc(client, R"({"op":"run","id":"r","deadline_ms":600000,"scenario":)" +
                      scenario_to_json(config) + "}");
  const util::Json* ok = response.find("ok");
  ASSERT_NE(ok, nullptr);
  ASSERT_TRUE(ok->bool_or(false));
  const util::Json* result = response.find("result");
  ASSERT_NE(result, nullptr);
  const std::optional<RunStats> wire_stats = RunStats::from_json(*result);
  ASSERT_TRUE(wire_stats.has_value());

  const trace::ScenarioResult local = trace::ScenarioRunner().run_one(config);
  EXPECT_EQ(stats_json(RunStats::from_result(local)),
            stats_json(*wire_stats));
}

TEST(Server, FaultedShardedRunAcceptedOverTheWire) {
  // shards > 1 plus impairments used to be rejected at validation; the
  // partition-time schedule compiler made the combination first-class, and
  // the wire path must agree with the in-process runner byte for byte.
  TestServer ts(basic_config());
  LineClient client = ts.connect();
  trace::ScenarioConfig config = quick_scenario(33, 20.0);
  config.shards = 2;
  config.deployment.road_length_m = 800.0;
  config.deployment.aps_per_km = 10.0;
  config.impairments.schedule.ap_blackout(sec(4), sec(2), 0)
      .burst_loss(sec(8), sec(3), 6, 0.8);
  const util::Json response =
      rpc(client, R"({"op":"run","id":"fs","deadline_ms":600000,"scenario":)" +
                      scenario_to_json(config) + "}");
  const util::Json* ok = response.find("ok");
  ASSERT_NE(ok, nullptr);
  ASSERT_TRUE(ok->bool_or(false)) << error_kind(response);
  const util::Json* result = response.find("result");
  ASSERT_NE(result, nullptr);
  const std::optional<RunStats> wire_stats = RunStats::from_json(*result);
  ASSERT_TRUE(wire_stats.has_value());

  const trace::ScenarioResult local = trace::ScenarioRunner().run_one(config);
  EXPECT_TRUE(local.completed);
  EXPECT_GT(local.faults_injected, 0u);
  EXPECT_EQ(stats_json(RunStats::from_result(local)),
            stats_json(*wire_stats));
}

TEST(Server, WatchdogReapsStalledRun) {
  ServerConfig config = basic_config();
  config.workers = 1;
  config.stall_seed = 777;
  config.stall_ms = 30000.0;  // would hold the worker 30 s without a reap
  TestServer ts(config);
  LineClient client = ts.connect();
  trace::ScenarioConfig scenario = quick_scenario(777);
  const auto t0 = std::chrono::steady_clock::now();
  const util::Json response =
      rpc(client, R"({"op":"run","id":"s","deadline_ms":100,"scenario":)" +
                      scenario_to_json(scenario) + "}");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(error_kind(response), "deadline-exceeded");
  EXPECT_LT(elapsed.count(), 10000);  // reaped by the deadline, not the stall
  const obs::MetricsRegistry metrics = ts.server.metrics_snapshot();
  EXPECT_EQ(metrics.value("serve.watchdog_reaps"), 1.0);
  EXPECT_EQ(metrics.value("serve.stalls_injected"), 1.0);
}

TEST(Server, OverloadRejectionCarriesRetryAfter) {
  ServerConfig config = basic_config();
  config.workers = 1;
  config.queue_depth = 1;
  config.retry_after_ms = 25.0;
  config.stall_seed = 555;
  config.stall_ms = 30000.0;
  TestServer ts(config);
  LineClient client = ts.connect();

  // Occupy the only worker with the stalled seed, fill the queue, then
  // watch the next admission bounce.
  const std::string stalled =
      R"({"op":"run","id":"w0","deadline_ms":2000,"scenario":)" +
      scenario_to_json(quick_scenario(555)) + "}";
  ASSERT_TRUE(client.send_line(stalled));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // in worker
  ASSERT_TRUE(client.send_line(
      R"({"op":"run","id":"w1","scenario":)" +
      scenario_to_json(quick_scenario(1, 5.0)) + "}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // queued

  const util::Json rejected = rpc(
      client, R"({"op":"run","id":"w2","scenario":)" +
                  scenario_to_json(quick_scenario(2, 5.0)) + "}");
  EXPECT_EQ(error_kind(rejected), "overloaded");
  const util::Json* retry_after = rejected.find("retry_after_ms");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(retry_after->number_or(0.0), 25.0);
  EXPECT_GE(ts.server.metrics_snapshot().value("serve.rejected_overload"),
            1.0);

  // Both admitted runs still resolve: the stalled one via the watchdog,
  // the queued one normally.
  int deadline_exceeded = 0, completed = 0;
  for (int i = 0; i < 2; ++i) {
    const std::optional<std::string> line = client.recv_line(30000.0);
    ASSERT_TRUE(line.has_value());
    const std::optional<util::Json> json = util::Json::parse(*line);
    ASSERT_TRUE(json.has_value());
    const util::Json* ok = json->find("ok");
    if (ok != nullptr && ok->bool_or(false)) {
      ++completed;
    } else if (error_kind(*json) == "deadline-exceeded") {
      ++deadline_exceeded;
    }
  }
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(deadline_exceeded, 1);
}

TEST(Server, GracefulShutdownDrainsAndRejectsNewWork) {
  ServerConfig config = basic_config();
  config.workers = 1;
  config.stall_seed = 333;
  config.stall_ms = 30000.0;
  TestServer ts(config);
  LineClient client = ts.connect();

  // A stalled run (bounded by its deadline) holds the drain open.
  ASSERT_TRUE(client.send_line(
      R"({"op":"run","id":"d0","deadline_ms":500,"scenario":)" +
      scenario_to_json(quick_scenario(333)) + "}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::thread stopper([&] { ts.server.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // draining

  LineClient late = ts.connect();
  const util::Json rejected = rpc(
      late, R"({"op":"run","id":"d1","scenario":)" +
                scenario_to_json(quick_scenario(3, 5.0)) + "}");
  EXPECT_EQ(error_kind(rejected), "shutting-down");

  // The in-flight response is still flushed before the server exits.
  const std::optional<std::string> line = client.recv_line(30000.0);
  ASSERT_TRUE(line.has_value());
  const std::optional<util::Json> json = util::Json::parse(*line);
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(error_kind(*json), "deadline-exceeded");

  stopper.join();
  EXPECT_FALSE(ts.server.running());
}

TEST(Server, DisconnectCancelsThatClientsRuns) {
  ServerConfig config = basic_config();
  config.workers = 1;
  TestServer ts(config);
  {
    LineClient doomed = ts.connect();
    ASSERT_TRUE(doomed.send_line(
        R"({"op":"run","id":"gone","scenario":)" +
        scenario_to_json(quick_scenario(5, 1000000.0)) + "}"));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }  // disconnect while the (very long) run is in flight

  // The worker frees up well before the million-second run could finish.
  bool cancelled = false;
  for (int i = 0; i < 100 && !cancelled; ++i) {
    cancelled =
        ts.server.metrics_snapshot().value("serve.cancelled_disconnect") >=
        1.0;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(cancelled);
}

TEST(Server, OversizedLineIsRejectedAndClosed) {
  TestServer ts(basic_config());
  LineClient bystander = ts.connect();

  // A raw connection that streams 2 MiB with no newline. The server stops
  // reading at its 1 MiB cap, so the tail of the send only ends when the
  // server closes the connection (or the send timeout fails the test).
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string& path = ts.server.config().socket_path;
  std::copy(path.begin(), path.end(), addr.sun_path);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const timeval send_timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  const std::string blob(std::size_t{2} << 20, 'x');
  std::size_t sent = 0;
  while (sent < blob.size()) {
    const ssize_t n =
        ::send(fd, blob.data() + sent, blob.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_LT(sent, blob.size());  // the server hung up mid-line

  // The rejection arrives, then end of stream.
  std::string received;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t nl = received.find('\n');
  ASSERT_NE(nl, std::string::npos) << received;
  EXPECT_EQ(received.size(), nl + 1);
  const std::optional<util::Json> reject =
      util::Json::parse(received.substr(0, nl));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(error_kind(*reject), "line-too-long");
  EXPECT_EQ(ts.server.metrics_snapshot().value("serve.rejected_line_too_long"),
            1.0);

  EXPECT_TRUE(rpc(bystander, R"({"op":"ping","id":"bystander"})")
                  .find("pong") != nullptr);
}

TEST(Server, PipelinedPingsAnswerInOrder) {
  TestServer ts(basic_config());
  LineClient client = ts.connect();
  constexpr int kPings = 10000;
  std::string batch;
  for (int i = 0; i < kPings; ++i) {
    if (i > 0) batch += '\n';
    batch += R"({"op":"ping","id":"p)" + std::to_string(i) + R"("})";
  }
  ASSERT_TRUE(client.send_line(batch));  // one write, newline-terminated
  for (int i = 0; i < kPings; ++i) {
    const std::optional<std::string> line = client.recv_line(30000.0);
    ASSERT_TRUE(line.has_value()) << "missing pong " << i;
    const std::optional<util::Json> pong = util::Json::parse(*line);
    ASSERT_TRUE(pong.has_value()) << *line;
    const util::Json* id = pong->find("id");
    ASSERT_NE(id, nullptr);
    ASSERT_EQ(id->string_or(""), "p" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Campaign runner
// ---------------------------------------------------------------------------

TEST(Campaign, MergedStatsMatchSerialSweepByteForByte) {
  TestServer ts(basic_config());
  CampaignConfig campaign;
  campaign.servers = {ts.server.config().socket_path};
  campaign.clients_per_server = 3;
  campaign.base = quick_scenario(0, 15.0);
  campaign.first_seed = 1;
  campaign.num_seeds = 10;
  const CampaignReport report = run_campaign(campaign);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 10u);
  const CampaignStats oracle =
      serial_campaign_stats(campaign.base, 1, 10, /*jobs=*/2);
  EXPECT_EQ(report.merged.digest(), oracle.digest());
}

TEST(Campaign, ShardedFaultedCampaignMatchesSerialSweep) {
  // A campaign whose base scenario runs sharded *and* impaired: every seed
  // executes the formation engine end-to-end, and the merged stats still
  // equal the serial sweep's byte for byte.
  TestServer ts(basic_config());
  CampaignConfig campaign;
  campaign.servers = {ts.server.config().socket_path};
  campaign.clients_per_server = 2;
  campaign.base = quick_scenario(0, 15.0);
  campaign.base.shards = 2;
  campaign.base.deployment.road_length_m = 800.0;
  campaign.base.deployment.aps_per_km = 10.0;
  campaign.base.impairments.schedule.ap_blackout(sec(4), sec(2), 0)
      .gateway_flap(sec(8), sec(2), fault::kAllAps);
  campaign.first_seed = 1;
  campaign.num_seeds = 4;
  const CampaignReport report = run_campaign(campaign);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.merged.digest(),
            serial_campaign_stats(campaign.base, 1, 4, /*jobs=*/2).digest());
}

TEST(Campaign, RetriesSeedReapedByWatchdog) {
  ServerConfig config = basic_config();
  config.stall_seed = 4;  // one campaign seed stalls on its first attempt
  config.stall_ms = 30000.0;
  TestServer ts(config);
  CampaignConfig campaign;
  campaign.servers = {ts.server.config().socket_path};
  campaign.clients_per_server = 2;
  campaign.base = quick_scenario(0, 15.0);
  campaign.first_seed = 1;
  campaign.num_seeds = 6;
  campaign.deadline_ms = 200.0;
  const CampaignReport report = run_campaign(campaign);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 6u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(ts.server.metrics_snapshot().value("serve.watchdog_reaps"), 1.0);
  EXPECT_EQ(report.merged.digest(),
            serial_campaign_stats(campaign.base, 1, 6).digest());
}

TEST(Campaign, JournalResumeSkipsCompletedSeeds) {
  const std::string journal = "tj" + std::to_string(::getpid()) + ".jsonl";
  std::remove(journal.c_str());
  TestServer ts(basic_config());

  CampaignConfig first;
  first.servers = {ts.server.config().socket_path};
  first.base = quick_scenario(0, 15.0);
  first.first_seed = 1;
  first.num_seeds = 4;
  first.journal_path = journal;
  EXPECT_TRUE(run_campaign(first).ok());

  // Same journal, wider seed range: the four finished seeds come from the
  // journal, only the new ones hit the server.
  CampaignConfig second = first;
  second.num_seeds = 8;
  const CampaignReport report = run_campaign(second);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.resumed, 4u);
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(report.merged.digest(),
            serial_campaign_stats(first.base, 1, 8).digest());
  std::remove(journal.c_str());
}

TEST(Campaign, FailsOverFromDeadServer) {
  TestServer ts(basic_config());
  CampaignConfig campaign;
  campaign.servers = {"no-such-server.sock",
                      ts.server.config().socket_path};
  campaign.base = quick_scenario(0, 15.0);
  campaign.first_seed = 1;
  campaign.num_seeds = 6;
  const CampaignReport report = run_campaign(campaign);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.merged.digest(),
            serial_campaign_stats(campaign.base, 1, 6).digest());
}

TEST(Campaign, NoServersMarksEverySeedFailed) {
  CampaignConfig campaign;
  campaign.base = quick_scenario(0, 15.0);
  campaign.num_seeds = 3;
  const CampaignReport report = run_campaign(campaign);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failures.size(), 3u);
  EXPECT_EQ(report.failures.front().kind, "unreachable");
}

}  // namespace
}  // namespace spider::serve
