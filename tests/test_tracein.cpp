// Tests for the trace-ingest layer (src/tracein) and the unified
// impairment / client-profile API built on it (src/trace). Three claims
// are pinned here:
//
//   1. Ingest is strict and debuggable: every malformed row fails with its
//      1-based line number and a field-level message.
//   2. Ingest -> serialize -> ingest is an exact round trip, and the
//      compiled fault schedule is a pure function of (timeline, options) —
//      the replay determinism contract.
//   3. Trace-driven, mixed-population runs are byte-identical across
//      worker counts (the 200-seed fuzz at the bottom), and a default
//      client profile is the exact identity on every driver config.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phy/shard_fabric.hpp"
#include "trace/client_profile.hpp"
#include "trace/experiment.hpp"
#include "trace/impairment.hpp"
#include "trace/runner.hpp"
#include "tracein/occupancy.hpp"
#include "tracein/replay.hpp"

using namespace spider;

namespace {

tracein::OccupancyTimeline ingest(const std::string& text) {
  std::istringstream is(text);
  return tracein::read_occupancy(is);
}

/// The exact what() of the ingest failure for `text` ("" when it parses).
std::string ingest_error(const std::string& text) {
  try {
    ingest(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// A trace file on disk for the duration of one test, written into the
/// test's working directory (the build tree) like test_serve's sockets.
class TempTrace {
 public:
  TempTrace(const std::string& name, const std::string& content)
      : path_(name) {
    std::ofstream f(path_, std::ios::trunc);
    f << content;
  }
  ~TempTrace() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Ingest: formats, comments, line endings

TEST(OccupancyIngest, CsvSkipsCommentsHeaderAndCrlf) {
  const auto t = ingest(
      "# recorded by a monitor\r\n"
      "\r\n"
      "t_s,channel,occupancy\r\n"
      "0,1,0.25\r\n"
      "5,1,0.5\n"
      "5,6,0.75\n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.samples[0].at, Time{0});
  EXPECT_EQ(t.samples[0].channel, 1);
  EXPECT_DOUBLE_EQ(t.samples[0].occupancy, 0.25);
  EXPECT_EQ(t.samples[1].at, sec(5));
  EXPECT_EQ(t.samples[2].channel, 6);
  EXPECT_EQ(t.channels(), (std::vector<wire::Channel>{1, 6}));
  EXPECT_EQ(t.span(), sec(5));
}

TEST(OccupancyIngest, JsonlIsAutoDetectedFromLeadingBrace) {
  const auto t = ingest(
      "# jsonl dump\n"
      "{\"t_s\":0,\"channel\":6,\"occupancy\":0.4}\n"
      "{\"t_s\":2.5,\"channel\":6,\"occupancy\":0.8}\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.samples[0].channel, 6);
  EXPECT_DOUBLE_EQ(t.samples[1].occupancy, 0.8);
  EXPECT_EQ(t.samples[1].at, msec(2500));
}

// ---------------------------------------------------------------------------
// Ingest: every malformed row names its 1-based line

TEST(OccupancyIngest, MalformedCsvRowsReportLineNumbers) {
  EXPECT_EQ(ingest_error("0,1\n"),
            "occupancy trace line 1: expected 3 columns "
            "(t_s,channel,occupancy), got 2");
  // The comment and header lines still count toward the line number.
  EXPECT_EQ(ingest_error("# hi\nt_s,channel,occupancy\n0,1,0.2\nnope,1,0.2\n"),
            "occupancy trace line 4: bad timestamp 'nope'");
  EXPECT_EQ(ingest_error("0,six,0.2\n"),
            "occupancy trace line 1: bad channel 'six'");
  EXPECT_EQ(ingest_error("0,1,busy\n"),
            "occupancy trace line 1: bad occupancy 'busy'");
  EXPECT_EQ(ingest_error("-1,1,0.2\n"),
            "occupancy trace line 1: bad timestamp -1 "
            "(must be finite seconds >= 0)");
  EXPECT_EQ(ingest_error("0,6.5,0.2\n"),
            "occupancy trace line 1: channel must be an integer");
  EXPECT_EQ(ingest_error("0,15,0.2\n"),
            "occupancy trace line 1: unknown channel 15 "
            "(2.4 GHz band is 1..14)");
  EXPECT_EQ(ingest_error("0,1,1.5\n"),
            "occupancy trace line 1: occupancy 1.5 outside [0, 1]");
  EXPECT_EQ(ingest_error("10,6,0.2\n5,6,0.2\n"),
            "occupancy trace line 2: out-of-order sample for channel 6 "
            "(t went backwards)");
  EXPECT_EQ(ingest_error("10,6,0.2\n10,6,0.3\n"),
            "occupancy trace line 2: duplicate timestamp for channel 6");
  // Interleaved channels are fine: monotonicity is per channel.
  EXPECT_EQ(ingest_error("10,6,0.2\n0,11,0.2\n"), "");
}

TEST(OccupancyIngest, MalformedJsonlRowsReportLineNumbers) {
  EXPECT_EQ(ingest_error("{\"channel\":6,\"occupancy\":0.4}\n"),
            "occupancy trace line 1: missing numeric field 't_s'");
  EXPECT_EQ(ingest_error("{\"t_s\":0,\"channel\":6}\n"),
            "occupancy trace line 1: missing numeric field 'occupancy'");
  EXPECT_EQ(
      ingest_error("{\"t_s\":0,\"channel\":6,\"occupancy\":0.4}\n"
                   "{\"t_s\":1,\"channel\":6,\"occupancy\":0.4,\"rssi\":-60}\n"),
      "occupancy trace line 2: unknown field 'rssi'");
  EXPECT_NE(ingest_error("{not json\n").find("occupancy trace line 1: bad JSON"),
            std::string::npos);
}

TEST(OccupancyIngest, MissingFileNamesThePath) {
  std::string error;
  EXPECT_FALSE(tracein::ingest_file("no/such/trace.csv", &error).has_value());
  EXPECT_EQ(error, "cannot open occupancy trace: no/such/trace.csv");
}

// ---------------------------------------------------------------------------
// Round trip: ingest -> serialize -> ingest is exact

TEST(OccupancyRoundTrip, SerializeReingestIsByteIdentical) {
  // Awkward values on purpose: non-representable fractions must survive the
  // %.17g print -> strtod -> llround(µs) path without walking a tick.
  const auto original = ingest(
      "0.1,1,0.3333333333333333\n"
      "1.7,1,0.125\n"
      "0.30000000000000004,6,1\n"
      "2.999999,6,0.05\n");
  const std::string csv = tracein::occupancy_to_csv(original);
  std::istringstream is(csv);
  const auto again = tracein::read_occupancy(is);
  EXPECT_TRUE(again == original);
  EXPECT_EQ(tracein::occupancy_to_csv(again), csv);  // byte-identical
}

TEST(OccupancyRoundTrip, FileWriteAndReingestMatch) {
  tracein::OccupancyTimeline t;
  t.samples.push_back({msec(100), 11, 0.5});
  t.samples.push_back({msec(350), 11, 0.25});
  const TempTrace file("test_tracein_roundtrip.csv",
                       tracein::occupancy_to_csv(t));
  std::string error;
  const auto back = tracein::ingest_file(file.path(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(*back == t);
}

TEST(OccupancyTimeline, CheckCatchesHandBuiltMistakes) {
  tracein::OccupancyTimeline t;
  t.samples.push_back({sec(1), 6, 0.5});
  EXPECT_FALSE(t.check().has_value());

  t.samples.push_back({sec(1), 6, 0.5});
  EXPECT_EQ(t.check().value(),
            "sample 1: timestamps not strictly increasing on channel 6");
  t.samples[1] = {sec(2), 36, 0.5};
  EXPECT_EQ(t.check().value(), "sample 1: unknown channel 36");
  t.samples[1] = {sec(2), 6, 1.5};
  EXPECT_EQ(t.check().value(), "sample 1: occupancy outside [0, 1]");
  t.samples[1] = {Time{-1}, 6, 0.5};
  EXPECT_EQ(t.check().value(), "sample 1: negative timestamp");
}

// ---------------------------------------------------------------------------
// Replay compilation: windows, floor, mappings

TEST(ReplayCompile, InterferenceWindowsRunToTheChannelsNextSample) {
  // File order: ch6 @ 0s, ch6 @ 10s, ch1 @ 2s. The interior ch6 window
  // closes at the next ch6 row; tails use tail_window.
  const auto t = ingest("0,6,0.5\n2,1,0.4\n10,6,0.2\n");
  const fault::FaultSchedule schedule = tracein::compile_schedule(t, {});
  ASSERT_EQ(schedule.size(), 3u);
  const auto& specs = schedule.specs();

  EXPECT_EQ(specs[0].kind, fault::FaultKind::kChannelInterference);
  EXPECT_EQ(specs[0].at, Time{0});
  EXPECT_EQ(specs[0].duration, sec(10));  // closed by ch6 @ 10s
  EXPECT_EQ(specs[0].target, 6);
  EXPECT_DOUBLE_EQ(specs[0].intensity, 0.5);

  EXPECT_EQ(specs[1].target, 1);
  EXPECT_EQ(specs[1].duration, sec(1));  // tail: only ch1 sample
  EXPECT_DOUBLE_EQ(specs[1].intensity, 0.4);

  EXPECT_EQ(specs[2].target, 6);
  EXPECT_EQ(specs[2].at, sec(10));
  EXPECT_EQ(specs[2].duration, sec(1));  // tail of channel 6
}

TEST(ReplayCompile, MinOccupancyFloorDropsNoiseRows) {
  const auto t = ingest("0,6,0.04\n5,6,0.05\n10,6,0.2\n");
  const fault::FaultSchedule schedule = tracein::compile_schedule(t, {});
  ASSERT_EQ(schedule.size(), 2u);  // 0.04 < default floor 0.05; 0.05 stays
  EXPECT_EQ(schedule.specs()[0].at, sec(5));
  EXPECT_EQ(schedule.specs()[1].at, sec(10));
}

TEST(ReplayCompile, LossScaleCapsAtFullLoss) {
  tracein::ReplayOptions options;
  options.loss_scale = 3.0;
  const auto schedule =
      tracein::compile_schedule(ingest("0,6,0.5\n"), options);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.specs()[0].intensity, 1.0);
}

TEST(ReplayCompile, BurstMappingSizesDwellsToOccupancy) {
  tracein::ReplayOptions options;
  options.mapping = tracein::ReplayMapping::kBurst;
  const auto schedule =
      tracein::compile_schedule(ingest("0,6,0.25\n5,6,1\n"), options);
  ASSERT_EQ(schedule.size(), 2u);
  const auto& specs = schedule.specs();
  // E[busy] == occupancy: 0.25 of the default 200 ms dwell is bad time.
  EXPECT_EQ(specs[0].kind, fault::FaultKind::kChannelBurstLoss);
  EXPECT_EQ(specs[0].burst_mean, msec(50));
  EXPECT_EQ(specs[0].gap_mean, msec(150));
  // A fully busy window degenerates to constant interference: a zero gap
  // dwell would spin the injector's state machine.
  EXPECT_EQ(specs[1].kind, fault::FaultKind::kChannelInterference);
}

TEST(ReplayOptions, CheckNamesTheBadKnob) {
  tracein::ReplayOptions o;
  EXPECT_FALSE(o.check().has_value());
  o.loss_scale = -1.0;
  EXPECT_EQ(o.check().value(), "loss_scale: must be finite and >= 0");
  o = {};
  o.min_occupancy = 2.0;
  EXPECT_EQ(o.check().value(), "min_occupancy: must lie in [0, 1]");
  o = {};
  o.tail_window = Time{0};
  EXPECT_EQ(o.check().value(), "tail_window: must be positive");
  o = {};
  o.burst_dwell = Time{0};
  EXPECT_EQ(o.check().value(), "burst_dwell: must be positive");
}

TEST(ReplayOptions, MappingNamesRoundTrip) {
  tracein::ReplayMapping m;
  ASSERT_TRUE(tracein::replay_mapping_from_string("interference", &m));
  EXPECT_EQ(m, tracein::ReplayMapping::kInterference);
  ASSERT_TRUE(tracein::replay_mapping_from_string("burst", &m));
  EXPECT_EQ(m, tracein::ReplayMapping::kBurst);
  EXPECT_FALSE(tracein::replay_mapping_from_string("random", &m));
  EXPECT_STREQ(tracein::to_string(tracein::ReplayMapping::kBurst), "burst");
}

// ---------------------------------------------------------------------------
// ImpairmentSource: the one declarative impairment input

TEST(ImpairmentSource, DefaultIsSyntheticEmptyAndNone) {
  trace::ImpairmentSource source;
  EXPECT_EQ(source.kind, trace::ImpairmentSource::Kind::kSynthetic);
  EXPECT_TRUE(source.none());
  EXPECT_STREQ(source.field_name(), "impairments.schedule");
  EXPECT_STREQ(source.kind_name(), "synthetic");

  // The builder ergonomics the old `faults` field had still work.
  source.schedule.ap_blackout(sec(20), sec(5), 0);
  EXPECT_FALSE(source.none());
  std::string error;
  const auto resolved = source.resolve(&error);
  ASSERT_TRUE(resolved.has_value()) << error;
  ASSERT_EQ(resolved->size(), 1u);
  EXPECT_EQ(resolved->specs()[0].kind, fault::FaultKind::kApBlackout);
}

TEST(ImpairmentSource, TraceFileResolvesByIngestingAndCompiling) {
  const TempTrace file("test_tracein_source.csv", "0,6,0.5\n5,6,0.2\n");
  const auto source = trace::ImpairmentSource::trace_file(file.path());
  EXPECT_FALSE(source.none());  // a file is never knowably empty
  EXPECT_STREQ(source.field_name(), "impairments.trace_path");
  EXPECT_STREQ(source.kind_name(), "trace-file");

  std::string error;
  const auto resolved = source.resolve(&error);
  ASSERT_TRUE(resolved.has_value()) << error;
  const auto expected =
      tracein::compile_schedule(ingest("0,6,0.5\n5,6,0.2\n"), {});
  ASSERT_EQ(resolved->size(), expected.size());
  for (std::size_t i = 0; i < resolved->size(); ++i) {
    EXPECT_EQ(resolved->specs()[i].at, expected.specs()[i].at);
    EXPECT_EQ(resolved->specs()[i].duration, expected.specs()[i].duration);
    EXPECT_DOUBLE_EQ(resolved->specs()[i].intensity,
                     expected.specs()[i].intensity);
  }
}

TEST(ImpairmentSource, TraceFileFailuresCarryTheIngestMessage) {
  std::string error;
  EXPECT_FALSE(
      trace::ImpairmentSource::trace_file("").resolve(&error).has_value());
  EXPECT_EQ(error, "trace file path is empty");

  const TempTrace bad("test_tracein_bad.csv", "0,6,0.5\n0,6,0.6\n");
  EXPECT_FALSE(trace::ImpairmentSource::trace_file(bad.path())
                   .resolve(&error)
                   .has_value());
  EXPECT_EQ(error, "occupancy trace line 2: duplicate timestamp for channel 6");
}

TEST(ImpairmentSource, InlineTimelineValidatesBeforeCompiling) {
  tracein::OccupancyTimeline t;
  t.samples.push_back({sec(1), 6, 0.5});
  auto source = trace::ImpairmentSource::inline_timeline(t);
  EXPECT_STREQ(source.field_name(), "impairments.timeline");
  EXPECT_STREQ(source.kind_name(), "inline-timeline");
  std::string error;
  ASSERT_TRUE(source.resolve(&error).has_value()) << error;

  source.timeline.samples.push_back({sec(2), 6, 2.0});
  EXPECT_FALSE(source.resolve(&error).has_value());
  EXPECT_EQ(error, "sample 1: occupancy outside [0, 1]");

  source.replay.loss_scale = -1.0;
  EXPECT_FALSE(source.resolve(&error).has_value());
  EXPECT_EQ(error, "loss_scale: must be finite and >= 0");
}

TEST(ImpairmentSource, KindNamesRoundTrip) {
  trace::ImpairmentSource::Kind kind;
  ASSERT_TRUE(trace::impairment_kind_from_string("synthetic", &kind));
  EXPECT_EQ(kind, trace::ImpairmentSource::Kind::kSynthetic);
  ASSERT_TRUE(trace::impairment_kind_from_string("trace-file", &kind));
  EXPECT_EQ(kind, trace::ImpairmentSource::Kind::kTraceFile);
  ASSERT_TRUE(trace::impairment_kind_from_string("inline-timeline", &kind));
  EXPECT_EQ(kind, trace::ImpairmentSource::Kind::kInlineTimeline);
  EXPECT_FALSE(trace::impairment_kind_from_string("trace", &kind));
}

TEST(FaultKindNames, RoundTripThroughWireNames) {
  using fault::FaultKind;
  for (FaultKind kind :
       {FaultKind::kChannelBurstLoss, FaultKind::kChannelInterference,
        FaultKind::kApBlackout, FaultKind::kApReboot,
        FaultKind::kBeaconSilence, FaultKind::kPsmFlush,
        FaultKind::kDhcpStall, FaultKind::kDhcpNakStorm,
        FaultKind::kDhcpPoolReset, FaultKind::kGatewayFlap}) {
    FaultKind back;
    ASSERT_TRUE(fault::fault_kind_from_string(fault::to_string(kind), &back))
        << fault::to_string(kind);
    EXPECT_EQ(back, kind);
  }
  fault::FaultKind kind;
  EXPECT_FALSE(fault::fault_kind_from_string("ap_blackout", &kind));
}

// ---------------------------------------------------------------------------
// ClientProfile: the default is the exact identity; presets move real knobs

TEST(ClientProfile, DefaultApplyIsExactIdentity) {
  const trace::ClientProfile identity;
  EXPECT_TRUE(identity.is_default());

  core::SpiderConfig spider_before;
  core::SpiderConfig spider_after = spider_before;
  identity.apply(spider_after);
  EXPECT_EQ(spider_after.scanner.probe_interval,
            spider_before.scanner.probe_interval);
  EXPECT_EQ(spider_after.scanner.expiry, spider_before.scanner.expiry);
  EXPECT_EQ(spider_after.selector.tie_margin, spider_before.selector.tie_margin);
  EXPECT_EQ(spider_after.evaluate_interval, spider_before.evaluate_interval);
  EXPECT_EQ(spider_after.psm_retrieval, spider_before.psm_retrieval);
  EXPECT_EQ(spider_after.mode.period, spider_before.mode.period);

  base::StockConfig stock_before;
  base::StockConfig stock_after = stock_before;
  identity.apply(stock_after);
  EXPECT_EQ(stock_after.rescan_backoff, stock_before.rescan_backoff);
  EXPECT_EQ(stock_after.stack.ping.fail_threshold,
            stock_before.stack.ping.fail_threshold);
}

TEST(ClientProfile, PresetNamesRoundTrip) {
  using trace::ClientProfileKind;
  for (ClientProfileKind kind :
       {ClientProfileKind::kDefault, ClientProfileKind::kAggressiveScanner,
        ClientProfileKind::kStickyDevice, ClientProfileKind::kPsmPhone}) {
    ClientProfileKind back;
    ASSERT_TRUE(
        trace::client_profile_kind_from_string(trace::to_string(kind), &back));
    EXPECT_EQ(back, kind);
  }
  trace::ClientProfileKind kind;
  EXPECT_FALSE(trace::client_profile_kind_from_string("gamer", &kind));
  EXPECT_TRUE(
      trace::ClientProfile::preset(trace::ClientProfileKind::kDefault)
          .is_default());
}

TEST(ClientProfile, AggressiveScannerProbesFaster) {
  const auto p =
      trace::ClientProfile::preset(trace::ClientProfileKind::kAggressiveScanner);
  EXPECT_DOUBLE_EQ(p.scan_aggressiveness, 4.0);

  core::SpiderConfig spider;
  const Time before = spider.scanner.probe_interval;
  p.apply(spider);
  EXPECT_EQ(spider.scanner.probe_interval, Time{before.count() / 4});

  base::StockConfig stock;
  const Time backoff = stock.rescan_backoff;
  p.apply(stock);
  EXPECT_EQ(stock.rescan_backoff, Time{backoff.count() / 4});
}

TEST(ClientProfile, StickyDeviceClingsToItsAp) {
  const auto p =
      trace::ClientProfile::preset(trace::ClientProfileKind::kStickyDevice);
  core::SpiderConfig spider;
  const Time evaluate = spider.evaluate_interval;
  const double margin = spider.selector.tie_margin;
  p.apply(spider);
  EXPECT_EQ(spider.evaluate_interval, Time{evaluate.count() * 4});
  EXPECT_LE(spider.selector.tie_margin, 1.0);  // widened but clamped
  EXPECT_GE(spider.selector.tie_margin, margin);

  base::StockConfig stock;
  const int threshold = stock.stack.ping.fail_threshold;
  p.apply(stock);
  EXPECT_EQ(stock.stack.ping.fail_threshold, threshold * 4);
}

TEST(ClientProfile, PsmPhoneDutyCyclesTheSchedule) {
  const auto p =
      trace::ClientProfile::preset(trace::ClientProfileKind::kPsmPhone);
  core::SpiderConfig spider;
  const Time period = spider.mode.period;
  p.apply(spider);
  EXPECT_EQ(spider.psm_retrieval, core::PsmRetrieval::kPsPoll);
  EXPECT_EQ(spider.mode.period, Time{period.count() + period.count() / 2});
}

TEST(ClientMix, ExpandsMixOrderMajorWithFallback) {
  trace::ClientMix mix;
  mix.push_back({trace::ClientProfile::preset(
                     trace::ClientProfileKind::kAggressiveScanner),
                 2});
  mix.push_back(
      {trace::ClientProfile::preset(trace::ClientProfileKind::kPsmPhone), 1});
  const auto profiles = trace::expand_client_mix(mix, /*fallback_clients=*/7);
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0].kind, trace::ClientProfileKind::kAggressiveScanner);
  EXPECT_EQ(profiles[1].kind, trace::ClientProfileKind::kAggressiveScanner);
  EXPECT_EQ(profiles[2].kind, trace::ClientProfileKind::kPsmPhone);

  const auto fallback = trace::expand_client_mix({}, 3);
  ASSERT_EQ(fallback.size(), 3u);
  EXPECT_TRUE(fallback[0].is_default());

  trace::ScenarioConfig config;
  config.clients = 5;
  EXPECT_EQ(config.resolved_clients(), 5);
  config.client_mix = mix;
  EXPECT_EQ(config.resolved_clients(), 3);
}

// ---------------------------------------------------------------------------
// validate(): every new knob fails against its own field name

TEST(Validate, ClientMixIssuesNameTheSlice) {
  trace::ScenarioConfig config;
  config.client_mix.push_back({{}, 0});
  trace::ClientMixEntry bad;
  bad.count = 1;
  bad.profile.scan_aggressiveness = 0.0;
  bad.profile.psm_duty = 1.5;
  config.client_mix.push_back(bad);

  const auto issues = config.validate();
  auto has = [&](const std::string& field) {
    for (const auto& issue : issues) {
      if (issue.field == field) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("client_mix[0].count"));
  EXPECT_TRUE(has("client_mix[1].scan_aggressiveness"));
  EXPECT_TRUE(has("client_mix[1].psm_duty"));
  EXPECT_FALSE(has("clients"));  // the mix replaces the clients check
}

TEST(Validate, TraceImpairmentFailuresNameTheSourceField) {
  trace::ScenarioConfig config;
  config.impairments =
      trace::ImpairmentSource::trace_file("test_tracein_does_not_exist.csv");
  {
    const auto issues = config.validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].field, "impairments.trace_path");
    EXPECT_NE(issues[0].message.find("cannot open"), std::string::npos);
  }

  const TempTrace bad("test_tracein_validate.csv", "0,6,0.5\nx,6,0.5\n");
  config.impairments = trace::ImpairmentSource::trace_file(bad.path());
  {
    const auto issues = config.validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].field, "impairments.trace_path");
    EXPECT_NE(issues[0].message.find("line 2"), std::string::npos);
  }
}

// Formerly the shards>1 rejection test: schedules now compile into
// per-shard sub-schedules at partition time, so this pins the acceptance
// matrix — every impairment kind is valid at every width — while keeping
// the field-naming contract for the error paths that remain (a broken
// trace is still reported against its own source field, at any width).
TEST(Validate, ShardAcceptanceMatrixAndSourceFieldNaming) {
  const TempTrace file("test_tracein_shards.csv", "0,6,0.5\n");
  tracein::OccupancyTimeline t;
  t.samples.push_back({sec(1), 6, 0.5});

  for (int shards : {1, 2, 4, phy::kMaxShards}) {
    trace::ScenarioConfig config;
    config.shards = shards;

    config.impairments = trace::ImpairmentSource::trace_file(file.path());
    EXPECT_TRUE(config.validate().empty()) << "trace-file, shards " << shards;

    config.impairments = trace::ImpairmentSource::inline_timeline(t);
    EXPECT_TRUE(config.validate().empty())
        << "inline-timeline, shards " << shards;

    config.impairments = trace::ImpairmentSource();
    config.impairments.schedule.ap_blackout(sec(10), sec(1), 0);
    EXPECT_TRUE(config.validate().empty()) << "synthetic, shards " << shards;
  }

  // Error paths still name the offending source field, sharded or not.
  trace::ScenarioConfig config;
  config.shards = 4;
  config.impairments =
      trace::ImpairmentSource::trace_file("test_tracein_does_not_exist.csv");
  {
    const auto issues = config.validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].field, "impairments.trace_path");
    EXPECT_NE(issues[0].message.find("cannot open"), std::string::npos);
  }
}

// Trace-backed impairments run end-to-end under the sharded engine: both
// trace-backed kinds execute at shards > 1, reproduce run-to-run, and
// count exactly the faults the serial engine counts for the same source
// (onset accounting designates one shard per spec, so the sums match).
TEST(TraceReplay, TraceBackedImpairmentsRunSharded) {
  const TempTrace file("test_tracein_shard_e2e.csv",
                       "10,6,0.85\n25,6,0.1\n30,1,0.9\n40,1,0.2\n");
  tracein::OccupancyTimeline t;
  t.samples.push_back({sec(12), 6, 0.95});
  t.samples.push_back({sec(30), 6, 0.05});

  for (int source = 0; source < 2; ++source) {
    trace::ScenarioConfig cfg;
    cfg.seed = 77;
    cfg.duration = sec(50);
    cfg.deployment.road_length_m = 400;
    cfg.deployment.aps_per_km = 10;
    cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
    cfg.impairments = source == 0
                          ? trace::ImpairmentSource::trace_file(file.path())
                          : trace::ImpairmentSource::inline_timeline(t);

    cfg.shards = 1;
    const trace::ScenarioResult serial = trace::run_scenario(cfg);
    EXPECT_TRUE(serial.completed);
    EXPECT_GT(serial.faults_injected, 0u);

    cfg.shards = 2;
    const trace::ScenarioResult a = trace::run_scenario(cfg);
    const trace::ScenarioResult b = trace::run_scenario(cfg);
    EXPECT_TRUE(a.completed) << "source " << source;
    EXPECT_EQ(a.faults_injected, serial.faults_injected)
        << "source " << source;
    EXPECT_EQ(a.total_bytes, b.total_bytes) << "source " << source;
    EXPECT_EQ(a.outages, b.outages) << "source " << source;
    EXPECT_EQ(a.recoveries, b.recoveries) << "source " << source;
    EXPECT_EQ(a.recovery_times.samples(), b.recovery_times.samples())
        << "source " << source;
  }
}

// ---------------------------------------------------------------------------
// Determinism fuzz: 200 seeds, trace-driven + mixed populations, jobs {1,8}

// Same exact-digest idea as test_sweep.cpp: everything deterministic in a
// result, wall-clock excluded.
std::string digest(const trace::ScenarioResult& r) {
  std::ostringstream out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out << buf;
  };
  num(r.avg_throughput_kBps);
  num(r.connectivity);
  out << r.total_bytes << ',' << r.switches << ',' << r.joins_attempted << ','
      << r.e2e_succeeded << ',';
  out << r.faults_injected << ',' << r.outages << ',' << r.recoveries << ',';
  for (double s : r.recovery_times.samples()) num(s);
  out << r.perf.events_popped << ',' << r.perf.events_cancelled;
  return out.str();
}

std::string fuzz_trace_csv() {
  tracein::OccupancyTimeline t;
  for (int w = 0; w < 5; ++w) {
    t.samples.push_back({sec(5 + w * 10), 1, 0.15 + 0.05 * w});
    t.samples.push_back({sec(5 + w * 10), 6, w == 2 ? 0.9 : 0.08});
    t.samples.push_back({sec(5 + w * 10), 11, 0.3});
  }
  return tracein::occupancy_to_csv(t);
}

std::vector<trace::ScenarioConfig> fuzz_configs(const std::string& trace_path) {
  std::vector<trace::ScenarioConfig> configs;
  for (int i = 0; i < 200; ++i) {
    trace::ScenarioConfig cfg;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    cfg.duration = sec(60);
    cfg.deployment.road_length_m = 400;
    cfg.deployment.aps_per_km = 10;
    cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
    cfg.driver = (i % 3 == 0)   ? trace::DriverKind::kStock
                 : (i % 3 == 1) ? trace::DriverKind::kFatVap
                                : trace::DriverKind::kSpider;
    cfg.impairments = trace::ImpairmentSource::trace_file(trace_path);
    if (i % 2 == 1) {
      cfg.client_mix.push_back(
          {trace::ClientProfile::preset(
               trace::ClientProfileKind::kAggressiveScanner),
           1});
      cfg.client_mix.push_back(
          {trace::ClientProfile::preset(trace::ClientProfileKind::kStickyDevice),
           1});
    }
    configs.push_back(cfg);
  }
  return configs;
}

TEST(TraceReplayDeterminism, TwoHundredSeedsMatchAcrossJobsAndReingest) {
  const TempTrace file("test_tracein_fuzz.csv", fuzz_trace_csv());
  const auto configs = fuzz_configs(file.path());

  const auto serial = trace::ScenarioRunner({.jobs = 1}).run_many(configs);
  ASSERT_EQ(serial.size(), configs.size());
  std::vector<std::string> digests;
  digests.reserve(serial.size());
  for (const auto& result : serial) digests.push_back(digest(result));

  const auto parallel = trace::ScenarioRunner({.jobs = 8}).run_many(configs);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_EQ(digest(parallel[i]), digests[i]) << "jobs=8 seed " << i;
  }

  // Re-ingest determinism end to end: serialize the ingested timeline to a
  // second file and replay every seed from that copy — every digest must
  // still match byte for byte.
  std::string error;
  const auto ingested = tracein::ingest_file(file.path(), &error);
  ASSERT_TRUE(ingested.has_value()) << error;
  const TempTrace copy("test_tracein_fuzz_reingest.csv",
                       tracein::occupancy_to_csv(*ingested));
  auto reconfigs = configs;
  for (auto& cfg : reconfigs) {
    cfg.impairments = trace::ImpairmentSource::trace_file(copy.path());
  }
  const auto replayed = trace::ScenarioRunner({.jobs = 8}).run_many(reconfigs);
  ASSERT_EQ(replayed.size(), configs.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    ASSERT_EQ(digest(replayed[i]), digests[i]) << "re-ingest seed " << i;
  }
}

}  // namespace
