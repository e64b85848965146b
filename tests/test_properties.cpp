// Property-style parameterised sweeps (TEST_P): invariants that must hold
// across whole regions of the parameter space, not just at hand-picked
// points.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/join_model.hpp"
#include "analysis/selection_opt.hpp"
#include "net/link.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "trace/experiment.hpp"
#include "transport/tcp.hpp"
#include "util/stats.hpp"

namespace spider {
namespace {

// ---------------------------------------------------------------------------
// Join model (Eqs. 5-7): probability bounds and monotonicities across the
// whole (beta_max, h, D) grid.

struct JoinModelCase {
  double beta_max;
  double h;
  double D;
};

class JoinModelProperty : public ::testing::TestWithParam<JoinModelCase> {};

TEST_P(JoinModelProperty, ProbabilityBoundsAndMonotonicity) {
  const auto param = GetParam();
  model::JoinModelParams p;
  p.beta_max = param.beta_max;
  p.h = param.h;
  p.D = param.D;
  p.t = 4.0;

  double prev = -1.0;
  for (double fi = 0.0; fi <= 1.0001; fi += 0.05) {
    const double v = model::p_join_at(p, fi);
    ASSERT_GE(v, 0.0) << "fi=" << fi;
    ASSERT_LE(v, 1.0) << "fi=" << fi;
    ASSERT_GE(v, prev - 1e-9) << "not monotone at fi=" << fi;
    prev = v;
  }
}

TEST_P(JoinModelProperty, MoreTimeNeverHurts) {
  const auto param = GetParam();
  model::JoinModelParams p;
  p.beta_max = param.beta_max;
  p.h = param.h;
  p.D = param.D;
  p.fi = 0.4;

  double prev = -1.0;
  for (double t = 1.0; t <= 16.0; t += 1.0) {
    p.t = t;
    const double v = model::p_join(p);
    ASSERT_GE(v, prev - 1e-9) << "t=" << t;
    prev = v;
  }
}

TEST_P(JoinModelProperty, SimulationAgreesWithClosedForm) {
  const auto param = GetParam();
  model::JoinModelParams p;
  p.beta_max = param.beta_max;
  p.h = param.h;
  p.D = param.D;
  p.t = 4.0;
  p.fi = 0.5;
  Rng rng(static_cast<std::uint64_t>(param.beta_max * 100 + param.h * 10));
  EXPECT_NEAR(model::simulate_join(p, 3000, rng), model::p_join(p), 0.07);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JoinModelProperty,
    ::testing::Values(JoinModelCase{2.0, 0.0, 0.5}, JoinModelCase{5.0, 0.1, 0.5},
                      JoinModelCase{10.0, 0.1, 0.5}, JoinModelCase{5.0, 0.3, 0.5},
                      JoinModelCase{10.0, 0.1, 0.25},
                      JoinModelCase{5.0, 0.1, 1.0}),
    [](const auto& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "beta%d_h%d_D%d",
                    static_cast<int>(info.param.beta_max),
                    static_cast<int>(info.param.h * 100),
                    static_cast<int>(info.param.D * 100));
      return std::string(buf);
    });

// ---------------------------------------------------------------------------
// Medium + ARQ: measured delivery rates match the closed forms
//   broadcast: 1 - p      unicast (ARQ): 1 - p^(1+retries)

class MediumLossProperty : public ::testing::TestWithParam<double> {};

TEST_P(MediumLossProperty, DeliveryMatchesClosedForm) {
  const double p = GetParam();
  sim::Simulator sim;
  phy::PropagationConfig pc;
  pc.base_loss = p;
  pc.good_radius_m = 100;
  pc.range_m = 100;
  phy::Medium medium(sim, phy::Propagation(pc), Rng(17));
  phy::Radio tx(medium, wire::MacAddress(1), [] { return Position{0, 0}; });
  phy::Radio rx(medium, wire::MacAddress(2), [] { return Position{10, 0}; });
  int broadcast_got = 0, unicast_got = 0;
  rx.set_receiver([&](const wire::Frame& f) {
    if (f.dst.is_broadcast()) {
      ++broadcast_got;
    } else {
      ++unicast_got;
    }
  });
  tx.tune(6);
  rx.tune(6);
  sim.run_until(msec(50));

  const int n = 4000;
  wire::Frame bcast;
  bcast.type = wire::FrameType::kBeacon;
  bcast.dst = wire::MacAddress::broadcast();
  bcast.size_bytes = 60;
  wire::Frame ucast;
  ucast.type = wire::FrameType::kData;
  ucast.dst = wire::MacAddress(2);
  ucast.size_bytes = 60;
  for (int i = 0; i < n; ++i) {
    tx.send(bcast);
    tx.send(ucast);
  }
  sim.run_until(sec(100));

  EXPECT_NEAR(static_cast<double>(broadcast_got) / n, 1.0 - p, 0.03);
  const double arq_expected =
      1.0 - std::pow(p, 1 + phy::kMediumDefaultRetryLimit);
  EXPECT_NEAR(static_cast<double>(unicast_got) / n, arq_expected, 0.03);
}

INSTANTIATE_TEST_SUITE_P(LossGrid, MediumLossProperty,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.8),
                         [](const auto& info) {
                           return "p" + std::to_string(
                                            static_cast<int>(info.param * 100));
                         });

// ---------------------------------------------------------------------------
// Link: conservation and rate limiting across rates.

class LinkRateProperty : public ::testing::TestWithParam<double> {};

TEST_P(LinkRateProperty, NeverExceedsConfiguredRate) {
  const double rate_mbps = GetParam();
  sim::Simulator sim;
  net::Link link(sim, net::LinkConfig{.rate = mbps(rate_mbps),
                                      .delay = msec(5),
                                      .queue_packets = 10000});
  std::uint64_t bytes = 0;
  std::uint64_t delivered = 0;
  link.set_sink([&](wire::PacketPtr pkt) {
    bytes += pkt->size_bytes;
    ++delivered;
  });
  auto p = wire::make_tcp_packet(wire::Ipv4(1, 0, 0, 1), wire::Ipv4(1, 0, 0, 2),
                                 wire::TcpSegment{.payload_bytes = 1460});
  const int sent = 2000;
  for (int i = 0; i < sent; ++i) link.send(p);
  sim.run_until(sec(5));
  // <= rate * time, and no packet invented or duplicated.
  EXPECT_LE(static_cast<double>(bytes), rate_mbps * 1e6 / 8.0 * 5.0 * 1.01);
  EXPECT_LE(delivered + link.dropped() + link.queue_depth(),
            static_cast<std::uint64_t>(sent) + 1);
}

INSTANTIATE_TEST_SUITE_P(Rates, LinkRateProperty,
                         ::testing::Values(0.25, 1.0, 4.0, 16.0),
                         [](const auto& info) {
                           return "mbps" + std::to_string(
                                               static_cast<int>(info.param * 4));
                         });

// ---------------------------------------------------------------------------
// TCP over a lossy pair of links: goodput never exceeds the bottleneck and
// the receiver's byte count is exactly the sender's acked prefix or more.

class TcpLossProperty : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossProperty, ConservationUnderLoss) {
  const double loss = GetParam();
  sim::Simulator sim;
  Rng rng(99);
  net::Link fwd(sim, net::LinkConfig{.rate = mbps(2), .delay = msec(15)});
  net::Link rev(sim, net::LinkConfig{.rate = mbps(2), .delay = msec(15)});
  std::uint64_t delivered = 0;
  tcp::TcpSender sender(
      sim, 1, wire::Ipv4(1, 1, 1, 1), wire::Ipv4(2, 2, 2, 2),
      [&](wire::PacketPtr p) {
        if (!rng.chance(loss)) fwd.send(std::move(p));
      });
  tcp::TcpReceiver receiver(
      1, wire::Ipv4(2, 2, 2, 2), wire::Ipv4(1, 1, 1, 1),
      [&](wire::PacketPtr p) {
        if (!rng.chance(loss)) rev.send(std::move(p));
      },
      [&](std::size_t b) { delivered += b; });
  fwd.set_sink([&](wire::PacketPtr p) { receiver.on_segment(*p->as<wire::TcpSegment>()); });
  rev.set_sink([&](wire::PacketPtr p) { sender.on_segment(*p->as<wire::TcpSegment>()); });
  sender.start();
  sim.run_until(sec(30));

  // Bottleneck bound (2 Mbps for 30 s = 7.5 MB).
  EXPECT_LE(delivered, 7'875'000u);
  // The sender's acked bytes can never outrun actual delivery.
  EXPECT_LE(sender.bytes_acked(), delivered);
  // Unless the channel is hopeless, data flows.
  if (loss <= 0.2) {
    EXPECT_GT(delivered, 100'000u);
  }
}

INSTANTIATE_TEST_SUITE_P(Loss, TcpLossProperty,
                         ::testing::Values(0.0, 0.02, 0.1, 0.3),
                         [](const auto& info) {
                           return "loss" + std::to_string(
                                               static_cast<int>(info.param * 100));
                         });

// ---------------------------------------------------------------------------
// Selection optimisers: greedy <= DP <= exact, all within budget, for many
// random instances.

class SelectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionProperty, OrderingAndFeasibility) {
  Rng rng(GetParam());
  std::vector<model::ApCandidate> cands;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 14));
  for (std::size_t i = 0; i < n; ++i) {
    cands.push_back(model::ApCandidate{.time_in_range = rng.uniform(1.0, 20.0),
                                       .bandwidth = rng.uniform(0.1, 5.0),
                                       .overhead = rng.uniform(0.1, 4.0)});
  }
  const double budget = rng.uniform(5.0, 50.0);
  const auto exact = model::select_exhaustive(cands, budget);
  const auto dp = model::select_knapsack_dp(cands, budget, 0.01);
  const auto greedy = model::select_greedy(cands, budget);

  EXPECT_LE(greedy.value, exact.value + 1e-9);
  EXPECT_LE(dp.value, exact.value + 1e-9);
  EXPECT_GE(dp.value, exact.value * 0.97 - 1e-9);  // discretisation slack
  EXPECT_LE(exact.cost, budget + 1e-9);
  EXPECT_LE(greedy.cost, budget + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Full scenario determinism across driver kinds: identical seeds produce
// identical byte counts (the whole stack is replayable).

class ScenarioDeterminism
    : public ::testing::TestWithParam<trace::DriverKind> {};

TEST_P(ScenarioDeterminism, SameSeedSameBytes) {
  trace::ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.duration = sec(90);
  cfg.deployment.road_length_m = 1200;
  cfg.deployment.aps_per_km = 10;
  cfg.driver = GetParam();
  cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
  const auto a = trace::run_scenario(cfg);
  const auto b = trace::run_scenario(cfg);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.joins_attempted, b.joins_attempted);
  EXPECT_EQ(a.switches, b.switches);
}

INSTANTIATE_TEST_SUITE_P(Drivers, ScenarioDeterminism,
                         ::testing::Values(trace::DriverKind::kSpider,
                                           trace::DriverKind::kStock,
                                           trace::DriverKind::kFatVap),
                         [](const auto& info) {
                           return std::string(trace::to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// Cdf invariants on random sample sets.

class CdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfProperty, QuantileAndFractionAreConsistent) {
  Rng rng(GetParam());
  Cdf cdf;
  const int n = static_cast<int>(rng.uniform_int(1, 500));
  for (int i = 0; i < n; ++i) cdf.add(rng.normal(10.0, 5.0));
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double x = cdf.quantile(q);
    // F(quantile(q)) >= q (within one sample step).
    EXPECT_GE(cdf.fraction_at_or_below(x) + 1.0 / n, q - 1e-9);
  }
  // F is monotone over a scan of x.
  double prev = 0.0;
  for (double x = -10; x <= 30; x += 1.0) {
    const double f = cdf.fraction_at_or_below(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace spider
