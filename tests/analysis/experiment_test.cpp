#include "analysis/parallel_sweep.hpp"

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "cast/snapshot.hpp"
#include "common/expect.hpp"
#include "overlay/graph.hpp"

namespace vs07::analysis {
namespace {

TEST(MeasureEffectiveness, FloodOnRingIsAlwaysComplete) {
  const auto snapshot = cast::snapshotGraph(overlay::makeRing(40));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  const auto point = sweep.measureEffectiveness(snapshot, flood, 1, 20, 1);
  EXPECT_EQ(point.fanout, 1u);
  EXPECT_EQ(point.runs, 20u);
  EXPECT_EQ(point.avgMissPercent, 0.0);
  EXPECT_EQ(point.completePercent, 100.0);
  EXPECT_EQ(point.totalMisses, 0u);
  EXPECT_DOUBLE_EQ(point.avgLastHop, 20.0);  // N/2 on an even ring
}

TEST(MeasureEffectiveness, AccountsMissesOnPartitionedRing) {
  auto alive = std::vector<std::uint8_t>(20, 1);
  alive[3] = alive[10] = 0;  // partition the ring
  const auto snapshot =
      cast::snapshotGraph(overlay::makeRing(20), std::move(alive));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  const auto point = sweep.measureEffectiveness(snapshot, flood, 1, 50, 2);
  EXPECT_GT(point.avgMissPercent, 0.0);
  EXPECT_EQ(point.completePercent, 0.0);
  EXPECT_GT(point.totalMisses, 0u);
  EXPECT_GT(point.avgToDead, 0.0);
}

TEST(MeasureEffectiveness, DeterministicUnderSeed) {
  const auto snapshot = cast::snapshotGraph(overlay::makeHarary(4, 60));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  const auto a = sweep.measureEffectiveness(snapshot, flood, 2, 10, 7);
  const auto b = sweep.measureEffectiveness(snapshot, flood, 2, 10, 7);
  EXPECT_EQ(a.avgMessagesTotal, b.avgMessagesTotal);
  EXPECT_EQ(a.avgLastHop, b.avgLastHop);
}

TEST(MeasureEffectiveness, ZeroRunsRejected) {
  const auto snapshot = cast::snapshotGraph(overlay::makeRing(10));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  EXPECT_THROW(sweep.measureEffectiveness(snapshot, flood, 1, 0, 1),
               ContractViolation);
}

TEST(SweepEffectiveness, OnePointPerFanout) {
  const auto snapshot = cast::snapshotGraph(overlay::makeRing(20));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  const auto points =
      sweep.sweepEffectiveness(snapshot, flood, {1, 2, 3}, 5, 3);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].fanout, 1u);
  EXPECT_EQ(points[2].fanout, 3u);
}

TEST(MeasureProgress, MonotoneMeanSeries) {
  const auto snapshot = cast::snapshotGraph(overlay::makeRing(30));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  const auto stats = sweep.measureProgress(snapshot, flood, 1, 10, 4);
  ASSERT_FALSE(stats.meanPctRemaining.empty());
  EXPECT_NEAR(stats.meanPctRemaining[0], 100.0 * 29 / 30, 1e-9);
  for (std::size_t hop = 1; hop < stats.meanPctRemaining.size(); ++hop)
    EXPECT_LE(stats.meanPctRemaining[hop], stats.meanPctRemaining[hop - 1]);
  EXPECT_EQ(stats.meanPctRemaining.back(), 0.0);
  for (std::size_t hop = 0; hop < stats.meanPctRemaining.size(); ++hop) {
    // Tolerance: the mean is accumulated in floating point, so it can sit
    // an ulp away from min == max on deterministic overlays.
    EXPECT_LE(stats.minPctRemaining[hop],
              stats.meanPctRemaining[hop] + 1e-9);
    EXPECT_GE(stats.maxPctRemaining[hop],
              stats.meanPctRemaining[hop] - 1e-9);
  }
}

TEST(LifetimeHistogram, InitialPopulationSharesOneLifetime) {
  sim::Network network(30, 1);
  const auto histogram = lifetimeHistogram(network, /*nowCycle=*/12);
  EXPECT_EQ(histogram.total(), 30u);
  EXPECT_EQ(histogram.count(12), 30u);
}

TEST(LifetimeHistogram, MixedAges) {
  sim::Network network(5, 2);
  network.spawn(3);
  network.spawn(9);
  network.kill(0);
  const auto histogram = lifetimeHistogram(network, 10);
  EXPECT_EQ(histogram.total(), 6u);   // 4 originals + 2 joiners
  EXPECT_EQ(histogram.count(10), 4u);
  EXPECT_EQ(histogram.count(7), 1u);
  EXPECT_EQ(histogram.count(1), 1u);
}

TEST(MeasureMissLifetimes, NoMissesOnCompleteOverlay) {
  sim::Network network(20, 3);
  const auto snapshot = cast::snapshotGraph(overlay::makeRing(20));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  const auto study = sweep.measureMissLifetimes(snapshot, flood, network,
                                                /*nowCycle=*/50, 1, 10, 5);
  EXPECT_TRUE(study.missedLifetimes.empty());
  EXPECT_EQ(study.effectiveness.completePercent, 100.0);
}

TEST(MeasureMissLifetimes, RecordsLifetimesOfMissedNodes) {
  // Partitioned ring: nodes 4..9 unreachable from the 10.. side etc.
  auto alive = std::vector<std::uint8_t>(20, 1);
  alive[3] = alive[10] = 0;
  sim::Network network(20, 4);
  // Match the network's alive view for lifetime lookups.
  network.kill(3);
  network.kill(10);
  const auto snapshot =
      cast::snapshotGraph(overlay::makeRing(20), std::move(alive));
  const cast::FloodSelector flood;
  ParallelSweep sweep;
  const auto study =
      sweep.measureMissLifetimes(snapshot, flood, network, 7, 1, 20, 6);
  EXPECT_FALSE(study.missedLifetimes.empty());
  // All original nodes have lifetime 7 at cycle 7.
  EXPECT_EQ(study.missedLifetimes.count(7), study.missedLifetimes.total());
  EXPECT_EQ(study.missedLifetimes.total(), study.effectiveness.totalMisses);
}

}  // namespace
}  // namespace vs07::analysis
