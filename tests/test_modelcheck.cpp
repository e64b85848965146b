// Randomised model checks: run a component against a trivially-correct
// reference implementation over many random operation sequences. Plus
// tests for the hand-off tracker.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/event_queue.hpp"
#include "trace/handoff.hpp"
#include "transport/tcp.hpp"
#include "util/random.hpp"

namespace spider {
namespace {

// ---------------------------------------------------------------------------
// EventQueue vs a reference (multimap-based) priority queue.

class EventQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModel, MatchesReferenceUnderRandomOps) {
  Rng rng(GetParam());
  sim::EventQueue queue;
  // Reference: ordered (time, seq) -> id; fired ids in order.
  std::multimap<std::pair<std::int64_t, int>, int> reference;
  std::vector<std::pair<int, sim::EventHandle>> live;
  std::vector<int> fired, expected;
  int next_id = 0, next_seq = 0;

  for (int op = 0; op < 2000; ++op) {
    const double dice = rng.uniform(0, 1);
    if (dice < 0.5) {
      // Push at a random time.
      const std::int64_t when = rng.uniform_int(0, 5000);
      const int id = next_id++;
      auto handle = queue.push(Time{when}, [&fired, id] { fired.push_back(id); });
      reference.emplace(std::make_pair(when, next_seq++), id);
      live.emplace_back(id, handle);
    } else if (dice < 0.65 && !live.empty()) {
      // Cancel a random live event.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      live[idx].second.cancel();
      for (auto it = reference.begin(); it != reference.end(); ++it) {
        if (it->second == live[idx].first) {
          reference.erase(it);
          break;
        }
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (!queue.empty()) {
      // Pop one.
      queue.pop_and_run();
      ASSERT_FALSE(reference.empty());
      const int id = reference.begin()->second;
      expected.push_back(id);
      reference.erase(reference.begin());
      std::erase_if(live, [id](const auto& e) { return e.first == id; });
    }
  }
  while (!queue.empty()) {
    queue.pop_and_run();
    ASSERT_FALSE(reference.empty());
    expected.push_back(reference.begin()->second);
    reference.erase(reference.begin());
  }
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(reference.empty());
}

TEST_P(EventQueueModel, MatchesReferenceAcrossWheelHorizon) {
  // Same reference, but times straddle the near tier's window
  // [base, base + span), where base is the latest popped timestamp: pushes
  // inside it, on both edges of its end, up to 4 spans beyond it, and
  // before it. Cancels draw from every live event, so both tiers lose
  // entries, and enough of them to trigger compaction.
  Rng rng(GetParam());
  sim::EventQueue queue;
  const std::int64_t span = sim::EventQueue::kWheelSpan.count();
  std::multimap<std::pair<std::int64_t, int>, int> reference;
  std::vector<std::pair<int, sim::EventHandle>> live;
  std::vector<int> fired, expected;
  int next_id = 0, next_seq = 0;
  std::int64_t base = 0;

  const auto pop_one = [&] {
    const Time when = queue.pop_and_run();
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(when.count(), reference.begin()->first.first);
    base = std::max(base, when.count());
    const int id = reference.begin()->second;
    expected.push_back(id);
    reference.erase(reference.begin());
    std::erase_if(live, [id](const auto& e) { return e.first == id; });
  };

  for (int op = 0; op < 4000; ++op) {
    const double dice = rng.uniform(0, 1);
    if (dice < 0.5) {
      std::int64_t when = 0;
      switch (rng.uniform_int(0, 6)) {
        case 0: when = base + span - 1; break;  // last near slot
        case 1: when = base + span; break;      // first far time
        case 2: when = base; break;             // ties the last pop
        case 3: when = base - rng.uniform_int(1, span); break;  // past
        case 4: when = base + rng.uniform_int(span, 4 * span); break;
        default: when = base + rng.uniform_int(0, span - 1); break;
      }
      const int id = next_id++;
      auto handle =
          queue.push(Time{when}, [&fired, id] { fired.push_back(id); });
      reference.emplace(std::make_pair(when, next_seq++), id);
      live.emplace_back(id, handle);
    } else if (dice < 0.75 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      live[idx].second.cancel();
      for (auto it = reference.begin(); it != reference.end(); ++it) {
        if (it->second == live[idx].first) {
          reference.erase(it);
          break;
        }
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (!queue.empty()) {
      pop_one();
    }
    ASSERT_EQ(queue.live_size(), reference.size());
    ASSERT_EQ(queue.next_time().count(),
              reference.empty() ? Time::max().count()
                                : reference.begin()->first.first);
  }
  while (!queue.empty()) pop_one();
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(reference.empty());
  EXPECT_GE(base, 4 * span);
  EXPECT_GE(queue.perf().compactions, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// TcpReceiver vs a reference reassembly buffer under random segment
// delivery (loss, duplication, reordering).

class TcpReceiverModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpReceiverModel, ReassemblyMatchesReference) {
  Rng rng(GetParam());
  std::uint64_t delivered = 0;
  std::uint32_t last_ack = 0;
  tcp::TcpReceiver rx(
      1, wire::Ipv4(2, 2, 2, 2), wire::Ipv4(1, 1, 1, 1),
      [&](wire::PacketPtr p) { last_ack = p->as<wire::TcpSegment>()->ack; },
      [&](std::size_t b) { delivered += b; });

  constexpr std::uint32_t kSeg = 100;
  constexpr int kTotal = 200;
  // Reference: the set of segment indices delivered at least once.
  std::vector<bool> arrived(kTotal, false);

  // Random delivery order with duplicates and losses, then a cleanup pass.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kTotal; ++i) {
      if (rng.chance(0.4)) continue;  // lost this round
      const int idx = static_cast<int>(rng.uniform_int(0, kTotal - 1));
      wire::TcpSegment seg;
      seg.conn_id = 1;
      seg.seq = static_cast<std::uint32_t>(idx) * kSeg;
      seg.payload_bytes = kSeg;
      rx.on_segment(seg);
      arrived[static_cast<std::size_t>(idx)] = true;
    }
  }
  // Reference prefix: first gap among arrived segments.
  std::uint32_t ref_prefix = 0;
  while (ref_prefix < kTotal && arrived[ref_prefix]) ++ref_prefix;

  EXPECT_EQ(rx.bytes_delivered(), ref_prefix * kSeg);
  EXPECT_EQ(delivered, ref_prefix * kSeg);
  EXPECT_EQ(last_ack, ref_prefix * kSeg);

  // Fill every hole: everything must flush, exactly once.
  for (int i = 0; i < kTotal; ++i) {
    wire::TcpSegment seg;
    seg.conn_id = 1;
    seg.seq = static_cast<std::uint32_t>(i) * kSeg;
    seg.payload_bytes = kSeg;
    rx.on_segment(seg);
  }
  EXPECT_EQ(rx.bytes_delivered(), static_cast<std::uint64_t>(kTotal) * kSeg);
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kTotal) * kSeg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpReceiverModel,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// HandoffTracker

TEST(Handoff, SoftWhenLinksOverlap) {
  sim::Simulator sim;
  trace::HandoffTracker t(sim);
  // A up, B up, A down while B lives (soft), B down, C up 5 s later (hard).
  t.record_link_up();                                  // A @0
  sim.run_until(sec(10));
  t.record_link_up();                                  // B @10
  sim.run_until(sec(12));
  t.record_link_down();                                // A @12: soft
  sim.run_until(sec(20));
  t.record_link_down();                                // B @20
  sim.run_until(sec(25));
  t.record_link_up();                                  // C @25: 5 s gap
  auto s = t.summarize();
  EXPECT_EQ(s.handoffs, 2u);
  EXPECT_EQ(s.soft, 1u);
  EXPECT_DOUBLE_EQ(s.soft_fraction, 0.5);
  ASSERT_EQ(s.gap_seconds.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gap_seconds.quantile(0.5), 5.0);
}

TEST(Handoff, TrailingOutageNotCounted) {
  sim::Simulator sim;
  trace::HandoffTracker t(sim);
  t.record_link_up();
  sim.run_until(sec(10));
  t.record_link_down();  // never comes back
  auto s = t.summarize();
  EXPECT_EQ(s.handoffs, 0u);
  EXPECT_TRUE(s.gap_seconds.empty());
}

TEST(Handoff, EmptySummary) {
  sim::Simulator sim;
  trace::HandoffTracker t(sim);
  const auto s = t.summarize();
  EXPECT_EQ(s.handoffs, 0u);
  EXPECT_EQ(s.soft, 0u);
  EXPECT_DOUBLE_EQ(s.soft_fraction, 0.0);
  EXPECT_TRUE(s.gap_seconds.empty());
}

TEST(Handoff, ConsecutiveHardHandoffs) {
  sim::Simulator sim;
  trace::HandoffTracker t(sim);
  for (int i = 0; i < 5; ++i) {
    t.record_link_up();
    sim.run_until(sim.now() + sec(10));
    t.record_link_down();
    sim.run_until(sim.now() + sec(2));
  }
  t.record_link_up();  // close the last gap
  auto s = t.summarize();
  EXPECT_EQ(s.handoffs, 5u);
  EXPECT_EQ(s.soft, 0u);
  EXPECT_DOUBLE_EQ(s.gap_seconds.quantile(0.5), 2.0);
}

}  // namespace
}  // namespace spider
