// Differential tests for the medium's spatial grid index (DESIGN.md §10).
//
// The grid is a pure search-space optimisation: for any deployment, traffic
// pattern, and seed, a grid-indexed medium must produce the byte-identical
// delivered-frame sequence — same receivers, same timestamps, same ARQ
// outcomes — as the brute-force per-channel scan, because candidate visit
// order (and therefore RNG draw order) is preserved. The brute-force path
// is the oracle; these tests replay randomized worlds through both and
// diff everything observable.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace spider::phy {

/// Test-only backdoor: corrupts private medium state to pin the checked
/// fatal-error paths (a release build used to ride an `assert` straight
/// into UB) and the empty-candidate-set counter guard.
struct MediumTestPeer {
  static void corrupt_recorded_cell(Medium& m, Radio& r) {
    auto& s = m.slots_[r.medium_slot_];
    s.cell = Medium::pack_cell(30000, 30000);
    s.qx0 = 1.0;  // empty quick-accept box: force the exact binning path
    s.qx1 = 0.0;
  }
  static void drop_from_cohort(Medium& m, Radio& r) {
    m.cohort_remove(r.channel(), r.medium_slot_);
  }
};

namespace {

constexpr wire::Channel kChannels[3] = {1, 6, 11};

PropagationConfig lossless_config(double range = 100.0) {
  PropagationConfig c;
  c.base_loss = 0.0;
  c.good_radius_m = range;  // no gray zone: in range means delivered
  c.range_m = range;
  return c;
}

MediumConfig indexed(NeighborIndex mode) {
  MediumConfig mc;
  mc.neighbor_index = mode;
  return mc;
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
};

/// One randomized deployment driven by `seed`, executed under the given
/// neighbor index. Every stochastic choice — world shape, radio placement,
/// mobility, channels, the event script, and the medium's loss draws — is a
/// pure function of (seed, script), so two calls with different `mode`
/// simulate the same world through different search structures.
WorldResult run_world(NeighborIndex mode, std::uint64_t seed,
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
  Medium medium(sim, Propagation(pc), Rng(seed * 31 + 7), indexed(mode));

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
    radios.back()->tune(kChannels[setup.uniform_int(0, 2)]);
  }
  // Boundary riders: one coordinate pinned to k * cell (+ a fraction of the
  // slack), the other sweeping along at a constant speed. The cell edge is
  // a pure function of the propagation config, so both modes build the
  // same routes.
  const double cell = medium.grid_cell_m();
  const double slack = medium.grid_slack_m();
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
    radios.back()->tune(kChannels[setup.uniform_int(0, 2)]);
  }
  const int total = static_cast<int>(radios.size());

  // Scripted traffic: sends (broadcast and unicast, exercising ARQ),
  // mid-run retunes, and mid-run detaches (radio destruction with frames
  // potentially in flight). All draws happen here, before the clock runs,
  // so the script is identical across modes.
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
      const wire::Channel ch = kChannels[setup.uniform_int(0, 2)];
      sim.post(at, [&radios, idx, ch] {
        if (radios[idx]) radios[idx]->tune(ch);
      });
    } else {
      sim.post(at, [&radios, idx] { radios[idx].reset(); });
    }
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
    const WorldResult grid = run_world(NeighborIndex::kGrid, seed);
    const WorldResult brute = run_world(NeighborIndex::kBruteForce, seed);
    ASSERT_EQ(grid.log, brute.log) << "delivered-frame sequence diverged at "
                                   << "seed " << seed;
    ASSERT_EQ(grid.sent, brute.sent) << "seed " << seed;
    ASSERT_EQ(grid.delivered, brute.delivered) << "seed " << seed;
    ASSERT_EQ(grid.dropped_at_rx, brute.dropped_at_rx) << "seed " << seed;
    ASSERT_EQ(grid.fanout, brute.fanout) << "seed " << seed;
    // The search counters are mode-specific by design: the grid may only
    // ever examine a subset of the brute-force cohort.
    ASSERT_LE(grid.candidates, brute.candidates) << "seed " << seed;
    ASSERT_EQ(brute.rebuckets, 0u) << "seed " << seed;
  }
}

// A declared motion bound (RadioConfig::max_speed_mps) lets the mobile
// sweep skip radios that provably cannot have left their cell, and the
// transmit loop re-sample skipped candidates lazily. That amortisation
// must be invisible: the delivered log and *every* counter — including
// rebuckets and cells scanned, which depend on when positions are sampled
// — must match the per-timestamp re-sampling run and brute force exactly.
TEST(SpatialIndexDifferential, DeclaredSpeedBoundIsPureWallClockChange) {
  WorldShape hinted;
  hinted.declare_speed = true;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorldResult fast = run_world(NeighborIndex::kGrid, seed, hinted);
    const WorldResult plain = run_world(NeighborIndex::kGrid, seed);
    const WorldResult brute = run_world(NeighborIndex::kBruteForce, seed);
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
// every in-range receiver (delivered log equal to brute force), and the
// declared-speed amortisation must stay invisible on those routes too.
TEST(SpatialIndexDifferential, BoundaryRidersMatchBruteForceAcross200Seeds) {
  WorldShape riders;
  riders.boundary_riders = 6;
  WorldShape hinted = riders;
  hinted.declare_speed = true;
  std::uint64_t rebuckets = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorldResult fast = run_world(NeighborIndex::kGrid, seed, hinted);
    const WorldResult plain = run_world(NeighborIndex::kGrid, seed, riders);
    const WorldResult brute =
        run_world(NeighborIndex::kBruteForce, seed, riders);
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
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                      indexed(NeighborIndex::kGrid));
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
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                      indexed(NeighborIndex::kGrid));
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
// of its own candidate set; an empty cohort would wrap the counter to
// ~2^64. Pin the guard through the test-only cohort backdoor.

TEST(SpatialIndexCounter, EmptyCandidateSetDoesNotUnderflowCounter) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                indexed(NeighborIndex::kBruteForce));
  Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
  tx.tune(6);
  sim.run_until(msec(10));
  MediumTestPeer::drop_from_cohort(medium, tx);
  tx.send(broadcast_frame());
  sim.run_until(msec(50));
  EXPECT_EQ(medium.candidates_examined(), 0u);
  EXPECT_EQ(medium.frames_sent(), 1u);
}

TEST(SpatialIndexCounter, LoneSenderExaminesNobody) {
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                  indexed(mode));
    Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
    tx.tune(6);
    sim.run_until(msec(10));
    tx.send(broadcast_frame());
    sim.run_until(msec(50));
    EXPECT_EQ(medium.candidates_examined(), 0u)
        << "mode " << static_cast<int>(mode);
  }
}

// --- reentrancy: deliver() that transmits ----------------------------
// A deliver() upcall may itself send (an AP relaying, an ACK, a probe
// response). The inner transmit reuses the medium's shared scratch lanes,
// so it must never run while an outer transmit is still iterating them —
// deliveries are posted events, never synchronous calls from the candidate
// loop, and this test pins that: if an inner transmit ever clobbered the
// outer iteration, the delivered sets would diverge between grid (scratch
// lanes) and brute force (cohort vector, clobber-immune).

TEST(SpatialIndexProperty, ReentrantTransmitFromDeliverIsClobberSafe) {
  std::string logs[2];
  int slot = 0;
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(23),
                  indexed(mode));
    RadioConfig rc;
    rc.mobile = false;
    // A ring of radios all in range of each other: every broadcast fans
    // out to everyone, and every delivery triggers another broadcast
    // (depth-limited), so inner transmits pile onto outer ones.
    constexpr std::size_t kRadios = 6;
    std::vector<std::unique_ptr<Radio>> radios;
    std::string& log = logs[slot];
    int budget = 30;  // echo depth limit so the chain terminates
    for (std::size_t i = 0; i < kRadios; ++i) {
      const Position p{static_cast<double>(i) * 10.0, 0.0};
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
        << "mode " << static_cast<int>(mode);
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

  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(range)), Rng(7),
                  indexed(mode));
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
    EXPECT_EQ(received, expected) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(medium.frames_delivered(), expected)
        << "mode " << static_cast<int>(mode);
  }
}

// --- property: rebucketing is delivery-neutral -----------------------
// A mobile receiver crossing a cell boundary while frames are in the air
// must neither lose a frame (its new bucket is found by later transmits;
// in-flight deliveries validate by (slot, generation), not by cell) nor
// receive one twice (it leaves its old bucket in the same sweep).

TEST(SpatialIndexProperty, RebucketingNeverDoublesOrDropsDeliveries) {
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(11),
                  indexed(mode));
    RadioConfig stationary;
    stationary.mobile = false;
    Radio tx(medium, wire::MacAddress(1),
             [] { return Position{150.0, 50.0}; }, stationary);
    // Starts in cell 0 and leaves its bucket box — cell 0 grown by the
    // hysteresis slack — at t = 0.1 s, while staying well inside the
    // transmitter's range throughout.
    const double exit_x = medium.grid_cell_m() + medium.grid_slack_m();
    const double speed = 15.0 * medium.grid_slack_m();  // per second
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
    EXPECT_EQ(received, kFrames) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(medium.frames_dropped_at_rx(), 0u)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(medium.frames_delivered(), static_cast<std::uint64_t>(kFrames))
        << "mode " << static_cast<int>(mode);
    if (mode == NeighborIndex::kGrid) {
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

RiderRun run_boundary_rider(NeighborIndex mode, int frames, Time horizon) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(29),
                indexed(mode));
  const double cell = medium.grid_cell_m();
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
      run_boundary_rider(NeighborIndex::kGrid, 500, horizon);
  const RiderRun dense =
      run_boundary_rider(NeighborIndex::kGrid, 4000, horizon);
  const RiderRun oracle =
      run_boundary_rider(NeighborIndex::kBruteForce, 4000, horizon);
  EXPECT_EQ(dense.log, oracle.log);
  EXPECT_FALSE(dense.log.empty());
  // Sweep samples: about sim time x speed / slack = 4 s x 10 m/s / 10 m
  // (each horizon is a hair under slack / speed), budgeted at twice that.
  // Fixed extras: attach, tune, and the rider's own 4 sends.
  const int sweep_budget = 2 * 4;
  EXPECT_LE(dense.rider_position_calls, 2 + 4 + sweep_budget);
  EXPECT_EQ(dense.rider_position_calls, sparse.rider_position_calls)
      << "sampling grew with the frame count";
  // Brute force samples every cohort member per transmit.
  EXPECT_GT(oracle.rider_position_calls, 4000 * 9 / 10);
  // Leaves cell 0's grown box (x >= cell + slack) at t = 3 s.
  EXPECT_EQ(dense.rebuckets, 1u);
}

TEST(SpatialIndexProperty, StationaryWorldNeverRebuckets) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(3),
                indexed(NeighborIndex::kGrid));
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
// On a spread-out deployment most of the cohort is out of range; the grid
// must examine strictly fewer candidates while delivering exactly the same
// frames.

TEST(SpatialIndexProperty, GridExaminesFewerCandidatesOnSpreadDeployment) {
  WorldResult results[2];
  int slot = 0;
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(5),
                  indexed(mode));
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

// --- configuration ---------------------------------------------------

TEST(SpatialIndexConfig, CellSizeClampsUpToPropagationRange) {
  // The cell is range + slack, the smallest sound 3x3 neighborhood.
  sim::Simulator sim;
  Medium derived(sim, Propagation(lossless_config(100.0)), Rng(1));
  EXPECT_DOUBLE_EQ(derived.grid_slack_m(), 10.0);
  EXPECT_DOUBLE_EQ(derived.grid_cell_m(), 110.0);
  EXPECT_EQ(derived.config().neighbor_index, NeighborIndex::kGrid);
}

TEST(SpatialIndexConfig, BruteForceScansNoCells) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                indexed(NeighborIndex::kBruteForce));
  Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
  Radio rx(medium, wire::MacAddress(2), [] { return Position{50.0, 0.0}; });
  tx.tune(6);
  rx.tune(6);
  sim.run_until(msec(50));
  tx.send(broadcast_frame());
  sim.run_until(msec(100));
  EXPECT_EQ(medium.frames_delivered(), 1u);
  EXPECT_EQ(medium.grid_cells_scanned(), 0u);
  EXPECT_EQ(medium.grid_rebuckets(), 0u);
}

}  // namespace
}  // namespace spider::phy
