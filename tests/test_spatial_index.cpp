// Differential tests for the medium's spatial grid index (DESIGN.md §10).
//
// The grid is a pure search-space optimisation: for any deployment, traffic
// pattern, and seed, a grid-indexed medium must produce the byte-identical
// delivered-frame sequence — same receivers, same timestamps, same ARQ
// outcomes — as a brute-force scan of the sender's channel, because
// candidate visit order (and therefore RNG draw order) is preserved. The
// oracle is the same medium with one cell larger than the world
// (MediumTestPeer::single_cell): its 3x3 neighborhood is the channel's
// whole membership in attach order, which is exactly the brute-force scan.
// These tests replay randomized worlds through both and diff everything
// observable.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "phy/shard_link.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace spider::phy {

/// Test-only backdoor: corrupts private medium state to pin the checked
/// fatal-error paths (a release build used to ride an `assert` straight
/// into UB) and the empty-candidate-set counter guard, and builds the
/// one-cell reference medium.
struct MediumTestPeer {
  static void corrupt_recorded_cell(Medium& m, Radio& r) {
    auto& s = m.slots_[r.medium_slot_];
    s.cell = Medium::pack_cell(30000, 30000);
    s.qx0 = 1.0;  // empty quick-accept box: force the exact binning path
    s.qx1 = 0.0;
  }
  /// Takes `r` out of its grid cell, so its transmit gathers nobody, not
  /// even itself. restore_to_cell must put it back before it detaches.
  static void drop_from_cell(Medium& m, Radio& r) {
    m.grid_remove(m.channel_state(r.channel()), r.medium_slot_);
  }
  static void restore_to_cell(Medium& m, Radio& r) {
    m.grid_insert(m.channel_state(r.channel()), r.medium_slot_, r.position());
  }
  /// Turns `m` into the brute-force reference: one cell edge of 1000 km,
  /// so every radio of a test world buckets into cell 0 or -1 and any 3x3
  /// neighborhood holds the channel's whole membership, merged in attach
  /// order. A slack of half a cell keeps each radio in its first bucket,
  /// so the reference never rebuckets, as a scan would not. Must run
  /// before any radio attaches.
  static void single_cell(Medium& m) {
    m.cell_m_ = 1e6;
    m.slack_m_ = m.cell_m_ / 2;
  }
};

namespace {

/// The two media every differential test compares: the production grid
/// and the one-cell brute-force reference.
enum class Index { kGrid, kOneCell };
constexpr Index kIndexes[] = {Index::kGrid, Index::kOneCell};

void apply_index(Medium& m, Index index) {
  if (index == Index::kOneCell) MediumTestPeer::single_cell(m);
}

PropagationConfig lossless_config(double range = 100.0) {
  PropagationConfig c;
  c.base_loss = 0.0;
  c.good_radius_m = range;  // no gray zone: in range means delivered
  c.range_m = range;
  return c;
}

wire::Frame broadcast_frame(std::size_t bytes = 100) {
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.dst = wire::MacAddress::broadcast();
  f.size_bytes = bytes;
  return f;
}

/// Everything observable from one world run. `log` is the delivered-frame
/// sequence: receiver, sender, size, and delivery timestamp in microseconds,
/// in upcall order — byte-equality means the simulations were identical.
struct WorldResult {
  std::string log;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_at_rx = 0;
  std::uint64_t fanout = 0;
  std::uint64_t candidates = 0;
  std::uint64_t rebuckets = 0;
  std::uint64_t cells_scanned = 0;
};

/// Knobs for the randomized world generator. The defaults reproduce the
/// historical 200-seed corpus.
struct WorldShape {
  /// Declare each mobile's exact speed as RadioConfig::max_speed_mps, so
  /// the medium's motion-bound rebucket amortisation engages. Off by
  /// default: the same world then runs with per-timestamp re-sampling,
  /// giving a differential baseline for the amortised path.
  bool declare_speed = false;
  /// Extra mobiles driving axis-aligned routes that sit on (or within the
  /// hysteresis slack of) a grid cell boundary — the city's street layout
  /// on cell-multiple coordinates. Appended after the random radios, so 0
  /// leaves the historical corpus untouched.
  int boundary_riders = 0;
  /// The channels radios tune to and retune between.
  std::array<wire::Channel, 3> channels = {1, 6, 11};
  /// When nonzero, a channel that loses every frame from 1 s to 2.5 s
  /// (set_channel_impairment(…, 1.0), then clear_channel_impairment).
  wire::Channel impaired = 0;
};

/// One randomized deployment driven by `seed`, executed on the given
/// index. Every stochastic choice — world shape, radio placement,
/// mobility, channels, the event script, and the medium's loss draws — is a
/// pure function of (seed, script), so two calls with different `index`
/// simulate the same world through different search structures.
WorldResult run_world(Index index, std::uint64_t seed,
                      const WorldShape& shape = {}) {
  Rng setup(seed);
  const int n = static_cast<int>(setup.uniform_int(2, 40));
  const double side = setup.uniform(100.0, 600.0);
  PropagationConfig pc;
  pc.range_m = setup.uniform(30.0, 150.0);
  pc.good_radius_m = pc.range_m * setup.uniform(0.5, 1.0);
  pc.base_loss = setup.uniform(0.0, 0.3);
  const double mobile_fraction = setup.uniform(0.0, 1.0);

  sim::Simulator sim;
  Medium medium(sim, Propagation(pc), Rng(seed * 31 + 7));
  // Boundary riders follow the production grid's cell edges in both runs,
  // so its cell and slack are read before the reference replaces them.
  const double cell = medium.grid_cell_m();
  const double slack = medium.grid_slack_m();
  apply_index(medium, index);
  const auto& channels = shape.channels;

  WorldResult out;
  const auto log_delivery = [&out, &sim](int i) {
    return [&out, i, &sim](const wire::Frame& f) {
      out.log += std::to_string(sim.now().count()) + ":" + std::to_string(i) +
                 ":" + std::to_string(f.src.raw()) + ":" +
                 std::to_string(f.size_bytes) + ";";
    };
  };
  std::vector<std::unique_ptr<Radio>> radios;
  radios.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Position start{setup.uniform(0.0, side), setup.uniform(0.0, side)};
    const bool mobile = setup.chance(mobile_fraction);
    const double vx = mobile ? setup.uniform(-25.0, 25.0) : 0.0;
    const double vy = mobile ? setup.uniform(-25.0, 25.0) : 0.0;
    RadioConfig rc;
    rc.mobile = mobile;
    if (shape.declare_speed) {
      rc.max_speed_mps = std::sqrt(vx * vx + vy * vy);
    }
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [start, vx, vy, &sim] {
          const double t = to_seconds(sim.now());
          return Position{start.x + vx * t, start.y + vy * t};
        },
        rc));
    radios.back()->set_receiver(log_delivery(i));
    radios.back()->tune(channels[setup.uniform_int(0, 2)]);
  }
  // Boundary riders: one coordinate pinned to k * cell (+ a fraction of the
  // slack), the other sweeping along at a constant speed. The cell edge is
  // a pure function of the propagation config, so both indexes build the
  // same routes.
  constexpr double kRiderOffsets[] = {0.0, 0.0, 0.5, -0.5, 1.0, -1.0};
  for (int r = 0; r < shape.boundary_riders; ++r) {
    const int i = static_cast<int>(radios.size());
    const auto k = static_cast<double>(
        setup.uniform_int(0, static_cast<std::int64_t>(side / cell) + 1));
    const double line =
        k * cell + slack * kRiderOffsets[setup.uniform_int(0, 5)];
    const double along = setup.uniform(0.0, side);
    const double v = setup.uniform(-25.0, 25.0);
    const bool horizontal = setup.chance(0.5);
    RadioConfig rc;
    rc.mobile = true;
    if (shape.declare_speed) rc.max_speed_mps = std::abs(v);
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [line, along, v, horizontal, &sim] {
          const double a = along + v * to_seconds(sim.now());
          return horizontal ? Position{a, line} : Position{line, a};
        },
        rc));
    radios.back()->set_receiver(log_delivery(i));
    radios.back()->tune(channels[setup.uniform_int(0, 2)]);
  }
  const int total = static_cast<int>(radios.size());

  // Scripted traffic: sends (broadcast and unicast, exercising ARQ),
  // mid-run retunes, and mid-run detaches (radio destruction with frames
  // potentially in flight). All draws happen here, before the clock runs,
  // so the script is identical across indexes.
  constexpr int kEvents = 150;
  for (int e = 0; e < kEvents; ++e) {
    const Time at = usec(setup.uniform_int(10'000, 3'000'000));
    const int kind = static_cast<int>(setup.uniform_int(0, 99));
    const auto idx =
        static_cast<std::size_t>(setup.uniform_int(0, total - 1));
    if (kind < 70) {
      wire::Frame f;
      f.type = wire::FrameType::kData;
      f.src = wire::MacAddress(idx + 1);
      const auto dst = static_cast<std::uint64_t>(setup.uniform_int(1, total));
      f.dst = setup.chance(0.5) ? wire::MacAddress::broadcast()
                                : wire::MacAddress(dst);
      f.size_bytes = static_cast<std::size_t>(setup.uniform_int(60, 1500));
      sim.post(at, [&radios, idx, f] {
        if (radios[idx]) radios[idx]->send(f);
      });
    } else if (kind < 90) {
      const wire::Channel ch = channels[setup.uniform_int(0, 2)];
      sim.post(at, [&radios, idx, ch] {
        if (radios[idx]) radios[idx]->tune(ch);
      });
    } else {
      sim.post(at, [&radios, idx] { radios[idx].reset(); });
    }
  }
  if (shape.impaired != 0) {
    sim.post(sec(1), [&medium, &shape] {
      medium.set_channel_impairment(shape.impaired, 1.0);
    });
    sim.post(msec(2500), [&medium, &shape] {
      medium.clear_channel_impairment(shape.impaired);
    });
  }
  sim.run_until(sec(4));

  out.sent = medium.frames_sent();
  out.delivered = medium.frames_delivered();
  out.dropped_at_rx = medium.frames_dropped_at_rx();
  out.fanout = medium.fanout_scheduled();
  out.candidates = medium.candidates_examined();
  out.rebuckets = medium.grid_rebuckets();
  out.cells_scanned = medium.grid_cells_scanned();
  return out;
}

TEST(SpatialIndexDifferential, GridMatchesBruteForceAcross200Deployments) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorldResult grid = run_world(Index::kGrid, seed);
    const WorldResult brute = run_world(Index::kOneCell, seed);
    ASSERT_EQ(grid.log, brute.log) << "delivered-frame sequence diverged at "
                                   << "seed " << seed;
    ASSERT_EQ(grid.sent, brute.sent) << "seed " << seed;
    ASSERT_EQ(grid.delivered, brute.delivered) << "seed " << seed;
    ASSERT_EQ(grid.dropped_at_rx, brute.dropped_at_rx) << "seed " << seed;
    ASSERT_EQ(grid.fanout, brute.fanout) << "seed " << seed;
    // The search counters are index-specific by design: the grid may only
    // ever examine a subset of the channel's membership, which the
    // reference examines whole.
    ASSERT_LE(grid.candidates, brute.candidates) << "seed " << seed;
    ASSERT_EQ(brute.rebuckets, 0u) << "seed " << seed;
  }
}

// A declared motion bound (RadioConfig::max_speed_mps) lets the mobile
// sweep skip radios that provably cannot have left their cell, and the
// transmit loop re-sample skipped candidates lazily. That amortisation
// must be invisible: the delivered log and *every* counter — including
// rebuckets and cells scanned, which depend on when positions are sampled
// — must match the per-timestamp re-sampling run and the reference exactly.
TEST(SpatialIndexDifferential, DeclaredSpeedBoundIsPureWallClockChange) {
  WorldShape hinted;
  hinted.declare_speed = true;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorldResult fast = run_world(Index::kGrid, seed, hinted);
    const WorldResult plain = run_world(Index::kGrid, seed);
    const WorldResult brute = run_world(Index::kOneCell, seed);
    ASSERT_EQ(fast.log, plain.log) << "seed " << seed;
    ASSERT_EQ(fast.log, brute.log) << "seed " << seed;
    ASSERT_EQ(fast.sent, plain.sent) << "seed " << seed;
    ASSERT_EQ(fast.delivered, plain.delivered) << "seed " << seed;
    ASSERT_EQ(fast.dropped_at_rx, plain.dropped_at_rx) << "seed " << seed;
    ASSERT_EQ(fast.fanout, plain.fanout) << "seed " << seed;
    ASSERT_EQ(fast.candidates, plain.candidates) << "seed " << seed;
    ASSERT_EQ(fast.cells_scanned, plain.cells_scanned) << "seed " << seed;
    ASSERT_EQ(fast.rebuckets, plain.rebuckets) << "seed " << seed;
  }
}

// Boundary riders exercise the bucket hysteresis: a mobile on a cell-edge
// street keeps whichever bucket it entered until it strays a full slack
// away, so its bucket is often not its true cell. The grid must still find
// every in-range receiver (delivered log equal to the reference), and the
// declared-speed amortisation must stay invisible on those routes too.
TEST(SpatialIndexDifferential, BoundaryRidersMatchBruteForceAcross200Seeds) {
  WorldShape riders;
  riders.boundary_riders = 6;
  WorldShape hinted = riders;
  hinted.declare_speed = true;
  std::uint64_t rebuckets = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorldResult fast = run_world(Index::kGrid, seed, hinted);
    const WorldResult plain = run_world(Index::kGrid, seed, riders);
    const WorldResult brute = run_world(Index::kOneCell, seed, riders);
    ASSERT_EQ(plain.log, brute.log) << "seed " << seed;
    ASSERT_EQ(fast.log, brute.log) << "seed " << seed;
    ASSERT_EQ(plain.delivered, brute.delivered) << "seed " << seed;
    ASSERT_EQ(plain.dropped_at_rx, brute.dropped_at_rx) << "seed " << seed;
    ASSERT_EQ(plain.fanout, brute.fanout) << "seed " << seed;
    ASSERT_LE(plain.candidates, brute.candidates) << "seed " << seed;
    ASSERT_EQ(fast.candidates, plain.candidates) << "seed " << seed;
    ASSERT_EQ(fast.cells_scanned, plain.cells_scanned) << "seed " << seed;
    ASSERT_EQ(fast.rebuckets, plain.rebuckets) << "seed " << seed;
    rebuckets += plain.rebuckets;
  }
  EXPECT_GT(rebuckets, 0u) << "no rider ever left its bucket box";
}

// Channels 36 and 149 live in the map half of the medium's per-channel
// records, channel 1 in the flat array. Radios retune across the two, and
// channel 36 loses every frame for 1.5 s of sim time through a set and
// then cleared impairment; the grid must still match the reference.
TEST(SpatialIndexDifferential, MapChannelsMatchBruteForceAcross100Seeds) {
  WorldShape wide;
  wide.channels = {1, 36, 149};
  WorldShape impaired = wide;
  impaired.impaired = 36;
  std::uint64_t delivered_clear = 0;
  std::uint64_t delivered_impaired = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (const WorldShape* shape : {&wide, &impaired}) {
      const WorldResult grid = run_world(Index::kGrid, seed, *shape);
      const WorldResult brute = run_world(Index::kOneCell, seed, *shape);
      ASSERT_EQ(grid.log, brute.log) << "seed " << seed;
      ASSERT_EQ(grid.sent, brute.sent) << "seed " << seed;
      ASSERT_EQ(grid.delivered, brute.delivered) << "seed " << seed;
      ASSERT_EQ(grid.dropped_at_rx, brute.dropped_at_rx) << "seed " << seed;
      ASSERT_EQ(grid.fanout, brute.fanout) << "seed " << seed;
      ASSERT_LE(grid.candidates, brute.candidates) << "seed " << seed;
      (shape == &wide ? delivered_clear : delivered_impaired) +=
          grid.delivered;
    }
  }
  EXPECT_GT(delivered_impaired, 0u);
  EXPECT_LT(delivered_impaired, delivered_clear)
      << "the impairment on channel 36 never reached the fan-out";
}

// A channel's record outlives its impairment: clearing zeroes the loss,
// and reading another map channel's impairment reports 0.
TEST(SpatialIndexProperty, MapChannelImpairmentSetsAndClears) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1));
  Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
  Radio rx(medium, wire::MacAddress(2), [] { return Position{50.0, 0.0}; });
  tx.tune(36);
  rx.tune(36);
  sim.run_until(msec(50));
  medium.set_channel_impairment(36, 1.0);
  EXPECT_DOUBLE_EQ(medium.channel_impairment(36), 1.0);
  EXPECT_DOUBLE_EQ(medium.channel_impairment(149), 0.0);
  tx.send(broadcast_frame());
  sim.run_until(msec(100));
  EXPECT_EQ(medium.frames_delivered(), 0u);
  medium.clear_channel_impairment(36);
  EXPECT_DOUBLE_EQ(medium.channel_impairment(36), 0.0);
  tx.send(broadcast_frame());
  sim.run_until(msec(150));
  EXPECT_EQ(medium.frames_delivered(), 1u);
}

// --- checked fatal errors --------------------------------------------
// grid_remove and refresh_mobile_buckets used to guard missing-cell
// lookups with `assert` only — release builds (-DNDEBUG) rode straight
// into UB on the end() iterator. They are now checked fatal errors in
// every build; pin the abort and its message.

using SpatialIndexDeathTest = ::testing::Test;

TEST(SpatialIndexDeathTest, GridRemoveWithCorruptCellAbortsCleanly) {
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1));
        auto radio = std::make_unique<Radio>(
            medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
        radio->tune(6);
        MediumTestPeer::corrupt_recorded_cell(medium, *radio);
        radio.reset();  // detach -> grid_remove on a cell that is not there
      },
      "grid invariant violated");
}

TEST(SpatialIndexDeathTest, MobileRefreshWithCorruptCellAbortsCleanly) {
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1));
        Radio mobile(medium, wire::MacAddress(1), [&sim] {
          return Position{95.0 + 50.0 * to_seconds(sim.now()), 0.0};
        });
        mobile.tune(6);
        MediumTestPeer::corrupt_recorded_cell(medium, mobile);
        // The transmit-side sweep finds the mobile's recorded cell missing.
        sim.run_until(msec(10));
        mobile.send(broadcast_frame());
      },
      "grid invariant violated");
}

// --- counter guard: empty candidate set ------------------------------
// candidates_examined_ += size - 1 assumed the sender is always a member
// of its own candidate set; an empty neighborhood would wrap the counter
// to ~2^64. Pin the guard by taking the sender out of its cell through
// the test-only backdoor.

TEST(SpatialIndexCounter, EmptyCandidateSetDoesNotUnderflowCounter) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1));
  RadioConfig stationary;
  stationary.mobile = false;
  Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; },
           stationary);
  tx.tune(6);
  sim.run_until(msec(10));
  MediumTestPeer::drop_from_cell(medium, tx);
  tx.send(broadcast_frame());
  sim.run_until(msec(50));
  MediumTestPeer::restore_to_cell(medium, tx);
  EXPECT_EQ(medium.candidates_examined(), 0u);
  EXPECT_EQ(medium.frames_sent(), 1u);
  EXPECT_EQ(medium.grid_cells_scanned(), 0u);
}

TEST(SpatialIndexCounter, LoneSenderExaminesNobody) {
  for (const Index index : kIndexes) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1));
    apply_index(medium, index);
    Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
    tx.tune(6);
    sim.run_until(msec(10));
    tx.send(broadcast_frame());
    sim.run_until(msec(50));
    EXPECT_EQ(medium.candidates_examined(), 0u)
        << "index " << static_cast<int>(index);
  }
}

// --- reentrancy: deliver() that transmits ----------------------------
// A deliver() upcall may itself send (an AP relaying, an ACK, a probe
// response). The inner transmit reuses the medium's shared scratch lanes,
// so it must never run while an outer transmit is still iterating them —
// deliveries are posted events, never synchronous calls from the candidate
// loop, and this test pins that: if an inner transmit ever clobbered the
// outer iteration, some transmit would reach other than the five radios in
// its range, and the grid (two cells merged) would diverge from the
// reference (one cell).

TEST(SpatialIndexProperty, ReentrantTransmitFromDeliverIsClobberSafe) {
  std::string logs[2];
  int slot = 0;
  for (const Index index : kIndexes) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(23));
    apply_index(medium, index);
    RadioConfig rc;
    rc.mobile = false;
    // A line of radios all in range of each other, straddling the grid's
    // x = 0 cell edge: every broadcast fans out to everyone, and every
    // delivery triggers another broadcast (depth-limited), so inner
    // transmits pile onto outer ones.
    constexpr std::size_t kRadios = 6;
    std::vector<std::unique_ptr<Radio>> radios;
    std::string& log = logs[slot];
    int budget = 30;  // echo depth limit so the chain terminates
    for (std::size_t i = 0; i < kRadios; ++i) {
      const Position p{static_cast<double>(i) * 10.0 - 25.0, 0.0};
      radios.push_back(std::make_unique<Radio>(
          medium, wire::MacAddress(i + 1), [p] { return p; }, rc));
    }
    for (std::size_t i = 0; i < kRadios; ++i) {
      radios[i]->set_receiver(
          [&log, &radios, &budget, i, &sim](const wire::Frame& f) {
            log += std::to_string(sim.now().count()) + ":" +
                   std::to_string(i) + ":" + std::to_string(f.src.raw()) + ";";
            if (budget > 0) {
              --budget;
              wire::Frame echo = broadcast_frame(200);
              echo.src = wire::MacAddress(i + 1);
              radios[i]->send(echo);  // reentrant: called under deliver()
            }
          });
      radios[i]->tune(11);
    }
    sim.run_until(msec(10));
    wire::Frame f = broadcast_frame(200);
    f.src = wire::MacAddress(1);
    radios[0]->send(f);
    sim.run_until(sec(2));
    EXPECT_GT(medium.frames_delivered(), 30u)
        << "index " << static_cast<int>(index);
    EXPECT_EQ(medium.fanout_scheduled(),
              (kRadios - 1) * medium.frames_sent())
        << "index " << static_cast<int>(index);
    EXPECT_EQ(medium.frames_delivered(), medium.fanout_scheduled())
        << "index " << static_cast<int>(index);
    ++slot;
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

// --- property: boundary coverage -------------------------------------
// With cell >= range, a radio at exactly range_m from the transmitter sits
// at most one cell away on each axis, so the 3x3 neighborhood must contain
// every in-range radio — including radios exactly on cell boundaries and
// exactly at range_m (in_range_at uses <=, and with good_radius == range
// the loss there is still base_loss = 0, so "visited" is observable as
// "delivered").

TEST(SpatialIndexProperty, BoundaryRadiosAtExactRangeAreDelivered) {
  const double range = 100.0;
  // Transmitter exactly on a cell corner; receivers on cell boundaries and
  // at exactly range_m in the axis and diagonal directions, plus a ring of
  // interior positions. One receiver sits just outside range as a control.
  const std::vector<Position> receivers = {
      {range, 0.0},           // cell boundary, exactly at range
      {0.0, range},           // cell boundary, exactly at range
      {-range, 0.0},          // negative-coordinate cell, exactly at range
      {0.0, -range},          // negative-coordinate cell, exactly at range
      {range / std::sqrt(2.0), range / std::sqrt(2.0)},  // diagonal at range
      {range, range},         // corner cell, out of range (distance ~141)
      {50.0, 0.0},  {0.0, 50.0},   {-30.0, -30.0}, {99.0, 0.0},
      {100.1, 0.0},           // just out of range
  };
  std::size_t expected = 0;
  for (const Position& p : receivers) {
    if (distance({0.0, 0.0}, p) <= range) ++expected;
  }

  for (const Index index : kIndexes) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(range)), Rng(7));
    apply_index(medium, index);
    RadioConfig rc;
    rc.mobile = false;
    Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; },
             rc);
    std::vector<std::unique_ptr<Radio>> rxs;
    std::size_t received = 0;
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      const Position p = receivers[i];
      rxs.push_back(std::make_unique<Radio>(medium, wire::MacAddress(i + 2),
                                            [p] { return p; }, rc));
      rxs.back()->set_receiver([&received](const wire::Frame&) { ++received; });
      rxs.back()->tune(6);
    }
    tx.tune(6);
    sim.run_until(msec(50));
    tx.send(broadcast_frame());
    sim.run_until(msec(100));
    EXPECT_EQ(received, expected) << "index " << static_cast<int>(index);
    EXPECT_EQ(medium.frames_delivered(), expected)
        << "index " << static_cast<int>(index);
  }
}

// --- property: rebucketing is delivery-neutral -----------------------
// A mobile receiver crossing a cell boundary while frames are in the air
// must neither lose a frame (its new bucket is found by later transmits;
// in-flight deliveries validate by (slot, generation), not by cell) nor
// receive one twice (it leaves its old bucket in the same sweep).

TEST(SpatialIndexProperty, RebucketingNeverDoublesOrDropsDeliveries) {
  for (const Index index : kIndexes) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(11));
    // Starts in the grid's cell 0 and leaves its bucket box — cell 0 grown
    // by the hysteresis slack — at t = 0.1 s, while staying well inside the
    // transmitter's range throughout. The route follows the production
    // grid in both runs.
    const double exit_x = medium.grid_cell_m() + medium.grid_slack_m();
    const double speed = 15.0 * medium.grid_slack_m();  // per second
    apply_index(medium, index);
    RadioConfig stationary;
    stationary.mobile = false;
    Radio tx(medium, wire::MacAddress(1),
             [] { return Position{150.0, 50.0}; }, stationary);
    Radio rx(medium, wire::MacAddress(2), [&sim, exit_x, speed] {
      return Position{exit_x + speed * (to_seconds(sim.now()) - 0.1), 50.0};
    });
    int received = 0;
    rx.set_receiver([&received](const wire::Frame&) { ++received; });
    tx.tune(6);
    rx.tune(6);
    sim.run_until(msec(90));
    // 40 frames straddling the crossing, half an airtime apart: several are
    // in flight at the moment the sweep rebuckets the receiver.
    constexpr int kFrames = 40;
    for (int i = 0; i < kFrames; ++i) {
      sim.post(usec(500) * i, [&tx] { tx.send(broadcast_frame(1500)); });
    }
    sim.run_until(msec(200));
    EXPECT_EQ(received, kFrames) << "index " << static_cast<int>(index);
    EXPECT_EQ(medium.frames_dropped_at_rx(), 0u)
        << "index " << static_cast<int>(index);
    EXPECT_EQ(medium.frames_delivered(), static_cast<std::uint64_t>(kFrames))
        << "index " << static_cast<int>(index);
    if (index == Index::kGrid) {
      EXPECT_GT(medium.grid_rebuckets(), 0u);
    }
  }
}

// A mobile driving exactly along a cell edge (y = cell) would, without
// hysteresis, sit at distance zero from the edge of its bucket box, and
// every transmit anywhere on its channel would re-sample it. The slack
// puts the box edge `slack` past the cell edge: the declared speed bounds
// how soon the rider can leave, and the position callback runs about once
// per slack / speed of sim time however many frames the channel carries. A far transmitter (two
// cell rows away, never in range of the rider) drives the sweep; the rider
// also sends a few frames of its own to a stationary listener by its road.
struct RiderRun {
  std::string log;
  int rider_position_calls = 0;
  std::uint64_t rebuckets = 0;
};

RiderRun run_boundary_rider(Index index, int frames, Time horizon) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(29));
  const double cell = medium.grid_cell_m();
  apply_index(medium, index);
  constexpr double kSpeed = 10.0;
  RiderRun run;
  RadioConfig stationary;
  stationary.mobile = false;
  RadioConfig bounded;
  bounded.max_speed_mps = kSpeed;
  // Crosses the x = cell edge at t = 2 s, riding y = cell throughout.
  Radio rider(
      medium, wire::MacAddress(1),
      [&sim, &run, cell] {
        ++run.rider_position_calls;
        return Position{cell - 20.0 + kSpeed * to_seconds(sim.now()), cell};
      },
      bounded);
  Radio listener(medium, wire::MacAddress(2),
                 [cell] { return Position{cell, cell + 30.0}; }, stationary);
  Radio far_tx(medium, wire::MacAddress(3),
               [cell] { return Position{cell, 3.5 * cell}; }, stationary);
  Radio far_rx(medium, wire::MacAddress(4),
               [cell] { return Position{cell + 40.0, 3.5 * cell}; },
               stationary);
  Radio* radios[] = {&rider, &listener, &far_tx, &far_rx};
  for (int i = 0; i < 4; ++i) {
    radios[i]->set_receiver([&run, i, &sim](const wire::Frame& f) {
      run.log += std::to_string(sim.now().count()) + ":" + std::to_string(i) +
                 ":" + std::to_string(f.src.raw()) + ";";
    });
    radios[i]->tune(6);
  }
  const Time gap = horizon / frames;
  for (int i = 0; i < frames; ++i) {
    sim.post(gap * i, [&far_tx] {
      wire::Frame f = broadcast_frame();
      f.src = wire::MacAddress(3);
      far_tx.send(f);
    });
  }
  for (int i = 0; i < 4; ++i) {
    sim.post(horizon / 4 * i + msec(1), [&rider] {
      wire::Frame f = broadcast_frame();
      f.src = wire::MacAddress(1);
      rider.send(f);
    });
  }
  sim.run_until(horizon + msec(100));
  run.rebuckets = medium.grid_rebuckets();
  return run;
}

TEST(SpatialIndexProperty, BoundaryRiderSamplingScalesWithDistanceNotFrames) {
  const Time horizon = sec(4);
  const RiderRun sparse =
      run_boundary_rider(Index::kGrid, 500, horizon);
  const RiderRun dense =
      run_boundary_rider(Index::kGrid, 4000, horizon);
  const RiderRun oracle =
      run_boundary_rider(Index::kOneCell, 4000, horizon);
  EXPECT_EQ(dense.log, oracle.log);
  EXPECT_FALSE(dense.log.empty());
  // Sweep samples: about sim time x speed / slack = 4 s x 10 m/s / 10 m
  // (each horizon is a hair under slack / speed), budgeted at twice that.
  // Fixed extras: attach, tune, and the rider's own 4 sends.
  const int sweep_budget = 2 * 4;
  EXPECT_LE(dense.rider_position_calls, 2 + 4 + sweep_budget);
  EXPECT_EQ(dense.rider_position_calls, sparse.rider_position_calls)
      << "sampling grew with the frame count";
  // The reference samples every channel member per transmit, as a
  // brute-force scan does.
  EXPECT_GT(oracle.rider_position_calls, 4000 * 9 / 10);
  // Leaves cell 0's grown box (x >= cell + slack) at t = 3 s.
  EXPECT_EQ(dense.rebuckets, 1u);
}

TEST(SpatialIndexProperty, StationaryWorldNeverRebuckets) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(3));
  RadioConfig stationary;
  stationary.mobile = false;
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < 10; ++i) {
    const Position p{static_cast<double>(i) * 40.0, 0.0};
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [p] { return p; }, stationary));
    radios.back()->tune(6);
  }
  sim.run_until(msec(50));
  for (int i = 0; i < 20; ++i) {
    sim.post(msec(10) * i, [&radios, i] {
      radios[static_cast<std::size_t>(i) % radios.size()]->send(
          broadcast_frame());
    });
  }
  sim.run_until(sec(1));
  EXPECT_GT(medium.frames_delivered(), 0u);
  EXPECT_EQ(medium.grid_rebuckets(), 0u);
}

// --- property: the grid actually prunes ------------------------------
// On a spread-out deployment most of the channel is out of range; the grid
// must examine strictly fewer candidates while delivering exactly the same
// frames.

TEST(SpatialIndexProperty, GridExaminesFewerCandidatesOnSpreadDeployment) {
  WorldResult results[2];
  int slot = 0;
  for (const Index index : kIndexes) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(5));
    apply_index(medium, index);
    RadioConfig stationary;
    stationary.mobile = false;
    std::vector<std::unique_ptr<Radio>> radios;
    constexpr int kRadios = 60;
    for (int i = 0; i < kRadios; ++i) {
      const Position p{static_cast<double>(i) * 80.0, 0.0};
      radios.push_back(std::make_unique<Radio>(
          medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
          [p] { return p; }, stationary));
      radios.back()->tune(6);
    }
    sim.run_until(msec(50));
    for (int i = 0; i < kRadios; ++i) {
      sim.post(msec(2) * i, [&radios, i] {
        radios[static_cast<std::size_t>(i)]->send(broadcast_frame());
      });
    }
    sim.run_until(sec(1));
    results[slot].delivered = medium.frames_delivered();
    results[slot].candidates = medium.candidates_examined();
    ++slot;
  }
  EXPECT_EQ(results[0].delivered, results[1].delivered);
  EXPECT_GT(results[1].candidates, 4 * results[0].candidates)
      << "grid pruned too little on a 4.7 km line of 100 m cells";
}

// --- neighbourhood cache --------------------------------------------
// Each cell caches its 3x3 neighbourhood and rebuilds it only after the
// channel's membership changed. Every kind of membership change is
// interleaved with transmits here — attach, detach, retune, a mobile
// crossing cell edges, and a formation proxy placed and unplaced — and
// each step's delivered set must equal the one-cell reference's.

/// Stands in for a formation: no radio is a shadow, native transmits are
/// not mirrored, and a delivery to a proxy slot is logged as that proxy's.
struct RecordingLink final : ShardLink {
  std::string* log = nullptr;
  const sim::Simulator* sim = nullptr;
  bool is_shadow(wire::MacAddress) const override { return false; }
  void on_shadow_attach(Radio&) override {}
  void on_shadow_detach(Radio&) override {}
  void on_shadow_transmit(Radio&, wire::Frame&&, const Position&,
                          BitRate) override {}
  void on_shadow_retune(Radio&, wire::Channel) override {}
  void on_native_transmit(wire::Channel, const Position&, const wire::Frame&,
                          BitRate, std::uint64_t) override {}
  void on_proxy_delivery(std::uint64_t gid, const wire::Frame& f,
                         double) override {
    *log += std::to_string(sim->now().count()) + ":P" + std::to_string(gid) +
            ":" + std::to_string(f.src.raw()) + ";";
  }
};

struct MembershipRun {
  std::vector<std::string> steps;  ///< delivered set of each step
  std::uint64_t candidates = 0;
  std::uint64_t rebuckets = 0;
};

MembershipRun run_membership_script(Index index) {
  sim::Simulator sim;
  PropagationConfig pc = lossless_config(100.0);
  pc.good_radius_m = 60.0;  // a lossy fringe: draw order matters
  pc.base_loss = 0.1;
  Medium medium(sim, Propagation(pc), Rng(17));
  const double cell = medium.grid_cell_m();
  apply_index(medium, index);
  std::string log;
  RecordingLink link;
  link.log = &log;
  link.sim = &sim;
  medium.set_shard_link(&link);

  RadioConfig stationary;
  stationary.mobile = false;
  std::vector<std::unique_ptr<Radio>> radios;
  const auto add_static = [&](double x, double y) {
    const int i = static_cast<int>(radios.size());
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [x, y] { return Position{x, y}; }, stationary));
    radios.back()->set_receiver([&log, &sim, i](const wire::Frame& f) {
      log += std::to_string(sim.now().count()) + ":" + std::to_string(i) +
             ":" + std::to_string(f.src.raw()) + ";";
    });
    radios.back()->tune(1);
  };
  // Statics spread over a 3x2 block of cells, each near a cell edge.
  for (const auto& [x, y] : {std::pair{0.3, 0.5}, std::pair{0.9, 0.6},
                            std::pair{1.2, 0.4}, std::pair{1.8, 0.9},
                            std::pair{2.1, 0.2}, std::pair{0.6, 1.3}}) {
    add_static(x * cell, y * cell);
  }
  // A mobile driving along y = 0.95 cell at 0.2 cell/s: it crosses the
  // x = cell and x = 2 cell edges during the script.
  {
    const int i = static_cast<int>(radios.size());
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [&sim, cell] {
          return Position{0.5 * cell + 0.2 * cell * to_seconds(sim.now()),
                          0.95 * cell};
        }));
    radios.back()->set_receiver([&log, &sim, i](const wire::Frame& f) {
      log += std::to_string(sim.now().count()) + ":" + std::to_string(i) +
             ":" + std::to_string(f.src.raw()) + ";";
    });
    radios.back()->tune(1);
  }
  // A proxy riding the other way along y = 0.5 cell.
  ShardProxyDesc proxy;
  proxy.gid = 900;
  proxy.channel = 1;
  proxy.filter = {{900, 901}};
  proxy.pos_at = [cell](Time t) {
    return Position{2.5 * cell - 0.3 * cell * to_seconds(t), 0.5 * cell};
  };
  proxy.max_speed_mps = 0.3 * cell;

  const std::vector<std::function<void()>> script = {
      [] {},                                             // as built
      [&] { add_static(1.1 * cell, 0.1 * cell); },       // attach
      [&] { radios[2].reset(); },                        // detach
      [&] { medium.proxy_attach(proxy); },               // proxy place
      [&] { radios[3]->tune(6); },                       // retune away
      [] {},                                             // mobiles move on
      [&] { medium.proxy_detach(proxy.gid); },           // proxy unplace
      [&] { radios[3]->tune(1); },                       // retune back
      [&] { add_static(2.2 * cell, 1.1 * cell); },       // attach far
      [&] { radios[6].reset(); },                        // detach the mobile
      [&] { radios[7].reset(); },                        // detach a newcomer
  };
  MembershipRun run;
  for (const auto& change : script) {
    change();
    sim.run_until(sim.now() + msec(10));  // any retune completes
    for (std::size_t i = 0; i < radios.size(); ++i) {
      if (!radios[i]) continue;
      radios[i]->send(broadcast_frame());
      wire::Frame unicast = broadcast_frame();
      unicast.type = wire::FrameType::kData;
      unicast.dst = wire::MacAddress((i + 1) % radios.size() + 1);
      radios[i]->send(unicast);
    }
    sim.run_until(sim.now() + msec(990));
    run.steps.push_back(std::move(log));
    log.clear();
  }
  run.candidates = medium.candidates_examined();
  run.rebuckets = medium.grid_rebuckets();
  for (auto& r : radios) r.reset();  // detach before the link goes away
  medium.set_shard_link(nullptr);
  return run;
}

TEST(SpatialIndexProperty, CachedNeighbourhoodTracksEveryMembershipChange) {
  const MembershipRun grid = run_membership_script(Index::kGrid);
  const MembershipRun oracle = run_membership_script(Index::kOneCell);
  ASSERT_EQ(grid.steps.size(), oracle.steps.size());
  for (std::size_t k = 0; k < grid.steps.size(); ++k) {
    EXPECT_FALSE(grid.steps[k].empty()) << "step " << k;
    EXPECT_EQ(grid.steps[k], oracle.steps[k]) << "step " << k;
  }
  // The proxy heard frames while it was placed, and only then.
  EXPECT_NE(grid.steps[3].find(":P900:"), std::string::npos);
  EXPECT_EQ(grid.steps[7].find(":P900:"), std::string::npos);
  // The grid really split the world (fewer candidates than the reference),
  // and the mobiles really changed cells.
  EXPECT_LT(grid.candidates, oracle.candidates);
  EXPECT_GT(grid.rebuckets, 0u);
  EXPECT_EQ(oracle.rebuckets, 0u);
}

// --- configuration ---------------------------------------------------

TEST(SpatialIndexConfig, CellSizeClampsUpToPropagationRange) {
  // The cell is range + slack, the smallest sound 3x3 neighborhood.
  sim::Simulator sim;
  Medium derived(sim, Propagation(lossless_config(100.0)), Rng(1));
  EXPECT_DOUBLE_EQ(derived.grid_slack_m(), 10.0);
  EXPECT_DOUBLE_EQ(derived.grid_cell_m(), 110.0);
}

}  // namespace
}  // namespace spider::phy
