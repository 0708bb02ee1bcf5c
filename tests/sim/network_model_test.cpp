// sim/network_model unit suite: each link condition resolved through
// NetworkConditions + NetworkModel::resolve, the pinned fate stream, the
// PartitionSchedule (windows, grouping, healing, the §5.1 arc
// compatibility with sim/failures), cluster latency, and the FIFO
// egress bandwidth cap.
#include "sim/network_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/expect.hpp"
#include "sim/failures.hpp"
#include "sim/network.hpp"

namespace vs07::sim {
namespace {

/// A model over a small network built from `conditions` alone (one tick
/// per cycle, so startCycle and partition windows count ticks).
struct Harness {
  explicit Harness(const NetworkConditions& conditions,
                   std::uint64_t seed = 7)
      : network(16, 3), model(conditions, network, 1, seed) {}
  Network network;
  NetworkModel model;
};

TEST(NetworkModel, LossDropsAtConfiguredRate) {
  NetworkConditions conditions;
  conditions.lossRate = 0.25;
  Harness h(conditions);
  int dropped = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i)
    if (h.model.resolve(1, 2, 0).copies == 0) ++dropped;
  const double rate = static_cast<double>(dropped) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.02);
  EXPECT_EQ(h.model.droppedByLoss(), static_cast<std::uint64_t>(dropped));
}

TEST(NetworkModel, ZeroRatesNeverDropDuplicateOrDelay) {
  NetworkConditions conditions;
  conditions.lossRate = 0.0;
  conditions.duplicateRate = 0.0;
  conditions.reorderRate = 0.0;
  Harness h(conditions);
  for (int i = 0; i < 1000; ++i) {
    const LinkFate fate = h.model.resolve(1, 2, 0);
    EXPECT_EQ(fate.copies, 1u);
    EXPECT_EQ(fate.extraDelayTicks, 0u);
  }
  EXPECT_EQ(h.model.droppedByLoss(), 0u);
  EXPECT_EQ(h.model.duplicated(), 0u);
  EXPECT_EQ(h.model.reordered(), 0u);
  EXPECT_EQ(h.model.partitions(), nullptr);  // no plan, no schedule
}

TEST(NetworkModel, BurstLossesClusterInBursts) {
  // Sticky chain with a lossless Good state and a lossy Bad state: the
  // same overall loss events must arrive in runs, which independent
  // Bernoulli loss at the matched average would not produce.
  NetworkConditions conditions;
  conditions.burstLoss = true;
  conditions.burst.pGoodToBad = 0.02;
  conditions.burst.pBadToGood = 0.2;
  conditions.burst.lossGood = 0.0;
  conditions.burst.lossBad = 1.0;
  Harness h(conditions, 11);
  constexpr int kTrials = 50'000;
  int losses = 0;
  int bursts = 0;  // maximal runs of consecutive losses
  bool inBurst = false;
  for (int i = 0; i < kTrials; ++i) {
    const bool lost = h.model.resolve(3, 4, 0).copies == 0;
    losses += lost ? 1 : 0;
    if (lost && !inBurst) ++bursts;
    inBurst = lost;
  }
  ASSERT_GT(losses, 0);
  const double meanBurstLength = static_cast<double>(losses) / bursts;
  // Geometric dwell time in Bad: mean run length 1/pBadToGood = 5.
  EXPECT_GT(meanBurstLength, 3.0);
}

TEST(NetworkModel, BurstChainsArePerDirectedLink) {
  // A chain that flips on every crossing, losing everything while Bad:
  // each directed link alternates drop, deliver, drop, ... from its own
  // first crossing. One shared chain would instead alternate across the
  // interleaved sends, delivering 2 -> 1's first crossing.
  NetworkConditions conditions;
  conditions.burstLoss = true;
  conditions.burst.pGoodToBad = 1.0;
  conditions.burst.pBadToGood = 1.0;
  conditions.burst.lossGood = 0.0;
  conditions.burst.lossBad = 1.0;
  Harness h(conditions, 3);
  for (int round = 0; round < 4; ++round) {
    const std::uint32_t expected = round % 2 == 0 ? 0u : 1u;
    EXPECT_EQ(h.model.resolve(1, 2, 0).copies, expected) << round;
    EXPECT_EQ(h.model.resolve(2, 1, 0).copies, expected) << round;
    EXPECT_EQ(h.model.resolve(1, 3, 0).copies, expected) << round;
  }
}

TEST(NetworkModel, DuplicationAddsACopyButNeverResurrectsADrop) {
  NetworkConditions conditions;
  conditions.duplicateRate = 1.0;
  Harness duplicating(conditions);
  EXPECT_EQ(duplicating.model.resolve(1, 2, 0).copies, 2u);
  EXPECT_EQ(duplicating.model.duplicated(), 1u);

  conditions.lossRate = 1.0;
  Harness lossy(conditions);
  EXPECT_EQ(lossy.model.resolve(1, 2, 0).copies, 0u);
  EXPECT_EQ(lossy.model.duplicated(), 0u);
  EXPECT_EQ(lossy.model.droppedByLoss(), 1u);
}

TEST(NetworkModel, ReorderAddsBoundedDelay) {
  NetworkConditions conditions;
  conditions.reorderRate = 1.0;
  conditions.reorderMaxTicks = 4;
  Harness h(conditions, 5);
  for (int i = 0; i < 200; ++i) {
    const LinkFate fate = h.model.resolve(1, 2, 0);
    EXPECT_EQ(fate.copies, 1u);
    EXPECT_GE(fate.extraDelayTicks, 1u);
    EXPECT_LE(fate.extraDelayTicks, 4u);
  }
  EXPECT_EQ(h.model.reordered(), 200u);
}

TEST(NetworkModel, RejectsOutOfRangeConditions) {
  Network network(8, 3);
  auto build = [&network](auto tweak) {
    NetworkConditions conditions;
    tweak(conditions);
    NetworkModel model(conditions, network, 1, 42);
  };
  EXPECT_THROW(build([](auto& c) { c.lossRate = 1.5; }), ContractViolation);
  EXPECT_THROW(build([](auto& c) { c.duplicateRate = -0.1; }),
               ContractViolation);
  EXPECT_THROW(build([](auto& c) { c.reorderRate = 2.0; }),
               ContractViolation);
  EXPECT_THROW(build([](auto& c) {
                 c.reorderRate = 0.5;
                 c.reorderMaxTicks = 0;
               }),
               ContractViolation);
  EXPECT_THROW(build([](auto& c) { c.burst.lossBad = 1.5; }),
               ContractViolation);
  EXPECT_THROW(build([](auto& c) { c.burst.pGoodToBad = -0.5; }),
               ContractViolation);
}

TEST(NetworkModel, ConditionsEngageAtStartCycle) {
  NetworkConditions conditions;
  conditions.lossRate = 1.0;
  conditions.bandwidth.messagesPerTick = 1;
  conditions.startCycle = 3;
  Network network(8, 3);
  NetworkModel model(conditions, network, /*ticksPerCycle=*/2, 42);
  // Ticks before startCycle * ticksPerCycle are clean and unmetered.
  for (std::uint64_t tick = 0; tick < 6; ++tick) {
    EXPECT_EQ(model.resolve(0, 1, tick).copies, 1u);
    EXPECT_EQ(model.egressDelay(0, tick), 0u);
    EXPECT_EQ(model.egressDelay(0, tick), 0u);
  }
  EXPECT_EQ(model.droppedByLoss(), 0u);
  EXPECT_EQ(model.resolve(0, 1, 6).copies, 0u);
  EXPECT_EQ(model.egressDelay(0, 6), 0u);
  EXPECT_EQ(model.egressDelay(0, 6), 1u);
}

TEST(PartitionSchedule, WindowsActivateAndHeal) {
  Network network(10, 1);
  PartitionSchedule schedule = PartitionSchedule::splitRing(network, 2);
  schedule.addWindow(5, 10);
  schedule.addWindow(20, 25);
  EXPECT_FALSE(schedule.active(4));
  EXPECT_TRUE(schedule.active(5));
  EXPECT_TRUE(schedule.active(9));
  EXPECT_FALSE(schedule.active(10));  // healed
  EXPECT_TRUE(schedule.active(24));
  EXPECT_FALSE(schedule.active(25));

  const auto side0 = schedule.members(0);
  const auto side1 = schedule.members(1);
  ASSERT_FALSE(side0.empty());
  ASSERT_FALSE(side1.empty());
  const NodeId a = side0.front();
  const NodeId b = side1.front();
  EXPECT_TRUE(schedule.blocks(a, b, 7));
  EXPECT_TRUE(schedule.blocks(b, a, 7));
  EXPECT_FALSE(schedule.blocks(a, side0.back(), 7));  // same side flows
  EXPECT_FALSE(schedule.blocks(a, b, 12));            // healed gap
}

TEST(PartitionSchedule, SplitRingGroupsAreContiguousArcs) {
  Network network(101, 9);
  PartitionSchedule schedule = PartitionSchedule::splitRing(network, 4);
  const auto ring = ringOrder(network);
  // Walking the ring must cross each group boundary exactly once: group
  // ids along the ring are non-decreasing.
  std::uint32_t previous = 0;
  std::size_t jumps = 0;
  for (const NodeId node : ring) {
    const std::uint32_t g = schedule.groupOf(node);
    if (g != previous) {
      EXPECT_EQ(g, previous + 1);
      ++jumps;
      previous = g;
    }
  }
  EXPECT_EQ(jumps, 3u);
  // Near-equal sizes.
  for (std::uint32_t g = 0; g < 4; ++g) {
    const auto size = schedule.members(g).size();
    EXPECT_GE(size, ring.size() / 4);
    EXPECT_LE(size, ring.size() / 4 + 1);
  }
}

TEST(PartitionSchedule, JoinersHashIntoGroupsDeterministically) {
  Network network(10, 1);
  PartitionSchedule schedule = PartitionSchedule::splitRing(network, 2);
  const NodeId joiner = network.totalCreated() + 5;
  const std::uint32_t g = schedule.groupOf(joiner);
  EXPECT_LT(g, 2u);
  EXPECT_EQ(schedule.groupOf(joiner), g);  // stable
}

TEST(PartitionSchedule, SplitRingArcMatchesKillContiguousArc) {
  // The §5.1 fold-in: the arc the partition isolates is byte-for-byte
  // the arc sim/failures kills, because both consume the same single
  // draw over the same ring order.
  Network networkA(211, 77);
  Network networkB(211, 77);
  Rng rngA(123);
  Rng rngB(123);
  const std::vector<NodeId> killed = killContiguousArc(networkA, 0.3, rngA);
  PartitionSchedule schedule =
      PartitionSchedule::splitRingArc(networkB, 0.3, rngB);
  const std::vector<NodeId> isolated = schedule.members(1);
  EXPECT_EQ(std::set<NodeId>(killed.begin(), killed.end()),
            std::set<NodeId>(isolated.begin(), isolated.end()));
  EXPECT_EQ(killed.size(), std::llround(0.3 * 211));
}

TEST(ClusterLatency, IntraVersusInterDraws) {
  NetworkConditions conditions;
  conditions.clusterLatency = {2, LatencyModel::fixed(1),
                               LatencyModel::fixed(5)};
  Network network(16, 2);
  NetworkModel model(conditions, network, 1, 99);
  Rng rng(1);
  // Find one same-cluster and one cross-cluster pair.
  NodeId same = kNoNode;
  NodeId cross = kNoNode;
  for (NodeId n = 1; n < 16; ++n) {
    if (model.clusterOf(n) == model.clusterOf(0)) same = n;
    if (model.clusterOf(n) != model.clusterOf(0)) cross = n;
  }
  ASSERT_NE(same, kNoNode);
  ASSERT_NE(cross, kNoNode);
  const LatencyModel fallback = LatencyModel::fixed(9);
  EXPECT_EQ(model.latencyTicks(0, same, fallback, rng), 1u);
  EXPECT_EQ(model.latencyTicks(0, cross, fallback, rng), 5u);
}

TEST(ClusterLatency, DisabledFallsBackToGlobalModel) {
  Network network(4, 2);
  NetworkModel model(NetworkConditions{}, network, 1, 99);
  Rng rng(1);
  EXPECT_EQ(model.latencyTicks(0, 1, LatencyModel::fixed(9), rng), 9u);
  EXPECT_EQ(model.clusterOf(3), 0u);
}

TEST(BandwidthCap, FifoQueueingDelay) {
  NetworkConditions conditions;
  conditions.bandwidth.messagesPerTick = 2;
  Network network(4, 2);
  NetworkModel model(conditions, network, 1, 99);
  // Five sends in one tick through a 2/tick pipe: the first two depart
  // immediately, then FIFO queueing backs up in 1-tick steps.
  EXPECT_EQ(model.egressDelay(0, 10), 0u);
  EXPECT_EQ(model.egressDelay(0, 10), 0u);
  EXPECT_EQ(model.egressDelay(0, 10), 1u);
  EXPECT_EQ(model.egressDelay(0, 10), 1u);
  EXPECT_EQ(model.egressDelay(0, 10), 2u);
  // Another sender has its own queue.
  EXPECT_EQ(model.egressDelay(1, 10), 0u);
  // Idle time drains the backlog.
  EXPECT_EQ(model.egressDelay(0, 13), 0u);
  EXPECT_EQ(model.queuedSends(), 3u);
  EXPECT_EQ(model.queuedDelayTotal(), 4u);
  EXPECT_EQ(model.maxQueueDelay(), 2u);
}

TEST(BandwidthCap, UnlimitedByDefault) {
  Network network(4, 2);
  NetworkModel model(NetworkConditions{}, network, 1, 99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.egressDelay(0, 1), 0u);
  EXPECT_EQ(model.queuedSends(), 0u);
}

TEST(NetworkModel, ResolveAppliesPartitionBeforeLoss) {
  NetworkConditions conditions;
  conditions.lossRate = 1.0;  // everything the partition spares is lost
  conditions.partition.kind = NetworkConditions::PartitionPlan::Kind::kRingSplit;
  conditions.partition.groups = 2;
  conditions.partition.windowsCycles = {{0, 100}};
  Network network(10, 3);
  NetworkModel model(conditions, network, 1, 42);
  ASSERT_NE(model.partitions(), nullptr);
  const NodeId a = model.partitions()->members(0).front();
  const NodeId b = model.partitions()->members(1).front();

  EXPECT_EQ(model.resolve(a, b, 5).copies, 0u);
  EXPECT_EQ(model.droppedByPartition(), 1u);
  EXPECT_EQ(model.droppedByLoss(), 0u);
  const NodeId a2 = model.partitions()->members(0).back();
  EXPECT_EQ(model.resolve(a, a2, 5).copies, 0u);
  EXPECT_EQ(model.droppedByLoss(), 1u);
}

TEST(NetworkModel, DuplicationAndReorderCompose) {
  NetworkConditions conditions;
  conditions.duplicateRate = 1.0;
  conditions.reorderRate = 1.0;
  conditions.reorderMaxTicks = 2;
  Network network(8, 3);
  NetworkModel model(conditions, network, 1, 42);
  const LinkFate fate = model.resolve(0, 1, 0);
  EXPECT_EQ(fate.copies, 2u);
  EXPECT_GE(fate.extraDelayTicks, 1u);
  EXPECT_LE(fate.extraDelayTicks, 2u);
  EXPECT_EQ(model.duplicated(), 1u);
  EXPECT_EQ(model.reordered(), 1u);
}

TEST(NetworkModel, DeterministicAcrossIdenticalRuns) {
  NetworkConditions conditions;
  conditions.lossRate = 0.3;
  conditions.duplicateRate = 0.1;
  Network networkA(32, 5);
  Network networkB(32, 5);
  NetworkModel a(conditions, networkA, 1, 1234);
  NetworkModel b(conditions, networkB, 1, 1234);
  for (std::uint64_t t = 0; t < 500; ++t) {
    const LinkFate fa = a.resolve(t % 32, (t * 7) % 32, t);
    const LinkFate fb = b.resolve(t % 32, (t * 7) % 32, t);
    EXPECT_EQ(fa.copies, fb.copies);
    EXPECT_EQ(fa.extraDelayTicks, fb.extraDelayTicks);
  }
  EXPECT_EQ(a.droppedByLoss(), b.droppedByLoss());
  EXPECT_EQ(a.duplicated(), b.duplicated());
}

TEST(NetworkModel, FateStreamPinned) {
  // Every condition armed at once; a fixed send stream walks through the
  // warm-up gate (startCycle 3 = tick 12), both partition windows (ticks
  // [20, 36) and [80, 88)) and a saturated egress cap. The hash folds
  // every resolve / egressDelay / latencyTicks output in transport order
  // (LatencyTransport::send), so any change to which condition draws
  // when, or in what order, moves it.
  NetworkConditions conditions;
  conditions.lossRate = 0.05;
  conditions.burstLoss = true;
  conditions.duplicateRate = 0.1;
  conditions.reorderRate = 0.2;
  conditions.reorderMaxTicks = 4;
  conditions.clusterLatency = {3, LatencyModel::fixed(1),
                               LatencyModel::uniform(2, 8)};
  conditions.bandwidth.messagesPerTick = 2;
  conditions.startCycle = 3;
  conditions.partition.kind = NetworkConditions::PartitionPlan::Kind::kRingArc;
  conditions.partition.arcFraction = 0.3;
  conditions.partition.windowsCycles = {{5, 9}, {20, 22}};
  Network network(500, 9);
  NetworkModel model(conditions, network, /*ticksPerCycle=*/4,
                     /*seed=*/1234);
  Rng sends(77);
  Rng latency(78);
  const LatencyModel fallback = LatencyModel::fixed(1);
  std::uint64_t hash = 0;
  auto fold = [&hash](std::uint64_t value) { hash = mix64(hash ^ value); };
  for (std::uint64_t tick = 0; tick < 200; ++tick) {
    for (int i = 0; i < 500; ++i) {
      const auto src = static_cast<NodeId>(sends.below(500));
      const auto dst = static_cast<NodeId>(sends.below(500));
      const LinkFate fate = model.resolve(src, dst, tick);
      fold(fate.copies);
      fold(fate.extraDelayTicks);
      fold(model.egressDelay(src, tick));
      if (fate.copies != 0)
        fold(model.latencyTicks(src, dst, fallback, latency));
    }
  }
  EXPECT_EQ(model.droppedByLoss(), 7952u);
  EXPECT_EQ(model.droppedByPartition(), 5026u);
  EXPECT_EQ(model.duplicated(), 8117u);
  EXPECT_EQ(model.reordered(), 16141u);
  EXPECT_EQ(model.queuedSends(), 14696u);
  EXPECT_EQ(hash, 0x3e1d79b19da53cbeULL);
}

}  // namespace
}  // namespace vs07::sim
