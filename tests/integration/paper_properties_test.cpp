// Integration tests asserting the paper's qualitative claims at reduced
// scale. Each test mirrors one claim of §7; the benches reproduce the full
// figures, these tests keep the claims true under CI.
#include <gtest/gtest.h>

#include "analysis/graph_analysis.hpp"
#include "analysis/parallel_sweep.hpp"
#include "analysis/scenario.hpp"
#include "cast/session.hpp"
#include "cast/strategy.hpp"

namespace vs07 {
namespace {

using analysis::ParallelSweep;
using analysis::Scenario;
using cast::Strategy;

Scenario buildStack(std::uint32_t nodes, std::uint64_t seed,
                    std::uint32_t rings = 1) {
  return Scenario::builder().nodes(nodes).seed(seed).rings(rings).build();
}

// §7.1 / Fig. 6: RINGCAST achieves complete dissemination for *any*
// fanout in a static failure-free network.
TEST(PaperStatic, RingCastCompleteAtEveryFanout) {
  const auto stack = buildStack(800, 11);
  const auto snapshot = stack.snapshot(Strategy::kRingCast);
  const auto& selector = cast::selectorFor(Strategy::kRingCast);
  ParallelSweep sweep;
  for (const std::uint32_t fanout : {1u, 2u, 3u, 5u, 10u}) {
    const auto point = sweep.measureEffectiveness(snapshot, selector, fanout,
                                                  20, 100 + fanout);
    EXPECT_EQ(point.avgMissPercent, 0.0) << "fanout " << fanout;
    EXPECT_EQ(point.completePercent, 100.0) << "fanout " << fanout;
  }
}

// §7.1 at the paper's full scale, through the redesigned experiment API:
// a 10k-node static network built by one preset call, disseminated over
// by a SnapshotSession — RINGCAST at the paper's F=3 misses nothing.
TEST(PaperStatic, FullScaleRingCastZeroMissThroughSessionApi) {
  auto scenario = Scenario::paperStatic(/*nodes=*/10'000, /*seed=*/2007);
  auto session = scenario.snapshotSession(
      {.strategy = Strategy::kRingCast, .fanout = 3, .seed = 1});
  for (int publishes = 0; publishes < 5; ++publishes) {
    const auto report = session.publishFromRandom();
    EXPECT_EQ(report.missRatioPercent(), 0.0);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.notified, 10'000u);
  }
  // A correctly wired system routes every message: the unroutable
  // counter must never move in any supported configuration.
  EXPECT_EQ(scenario.router().droppedUnroutable(), 0u);
}

// Every simulated message reaches a registered handler in all three of
// the paper's evaluation settings — the router's unroutable counter is a
// wiring invariant, pinned here across gossip, churn, failures, and a
// live pull session.
TEST(PaperWiring, NoMessageIsEverUnroutable) {
  auto churned = Scenario::paperChurn(/*rate=*/0.005, /*nodes=*/400,
                                      /*seed=*/77, /*maxChurnCycles=*/4'000);
  churned.killRandomFraction(0.05);
  churned.runCycles(20);
  auto& live = churned.liveSession(
      {.strategy = Strategy::kPushPull, .fanout = 2, .settleCycles = 4});
  live.publishFromRandom();
  EXPECT_GT(churned.router().droppedDead(), 0u);  // churn really happened
  EXPECT_EQ(churned.router().droppedUnroutable(), 0u);
}

// §7.1 / Fig. 6: RANDCAST misses nodes at low fanout even without
// failures, and the miss ratio falls steeply with the fanout.
TEST(PaperStatic, RandCastMissesAtLowFanoutAndImprovesWithIt) {
  const auto stack = buildStack(800, 12);
  const auto snapshot = stack.snapshot(Strategy::kRandCast);
  const auto& selector = cast::selectorFor(Strategy::kRandCast);
  ParallelSweep sweep;
  const auto f2 = sweep.measureEffectiveness(snapshot, selector, 2, 30, 200);
  const auto f4 = sweep.measureEffectiveness(snapshot, selector, 4, 30, 201);
  const auto f8 = sweep.measureEffectiveness(snapshot, selector, 8, 30, 202);
  EXPECT_GT(f2.avgMissPercent, 2.0);   // paper: ~10% at F=2, 10k nodes
  EXPECT_LT(f4.avgMissPercent, f2.avgMissPercent);
  EXPECT_LT(f8.avgMissPercent, f4.avgMissPercent);
  EXPECT_EQ(f2.completePercent, 0.0);
}

// §7.1 / Fig. 8: message overhead is proportional to the fanout —
// total sends ≈ F × notified, virgin ≈ notified.
TEST(PaperStatic, MessageOverheadProportionalToFanout) {
  const auto stack = buildStack(600, 13);
  const auto snapshot = stack.snapshot(Strategy::kRingCast);
  const auto& selector = cast::selectorFor(Strategy::kRingCast);
  ParallelSweep sweep;
  for (const std::uint32_t fanout : {2u, 4u, 8u}) {
    const auto point = sweep.measureEffectiveness(snapshot, selector, fanout,
                                                  10, 300 + fanout);
    const double n = snapshot.aliveCount();
    EXPECT_NEAR(point.avgMessagesTotal, fanout * n, 0.05 * fanout * n)
        << "fanout " << fanout;
    EXPECT_NEAR(point.avgVirgin, n - 1, 1e-9);
  }
}

// §7.1 / Fig. 7: RINGCAST finishes in no more hops than RANDCAST misses
// allow — concretely, the two protocols track each other early and
// RINGCAST reaches the last node while RANDCAST still misses nodes.
TEST(PaperStatic, ProgressSeriesShapes) {
  const auto stack = buildStack(800, 14);
  ParallelSweep sweep;
  const auto ring =
      sweep.measureProgress(stack, Strategy::kRingCast, 3, 15, 400);
  const auto rand =
      sweep.measureProgress(stack, Strategy::kRandCast, 3, 15, 401);
  // Early spreading is alike: after 3 hops both reach a similar share
  // (the probabilistic component dominates, §7.1).
  ASSERT_GT(ring.meanPctRemaining.size(), 3u);
  ASSERT_GT(rand.meanPctRemaining.size(), 3u);
  EXPECT_NEAR(ring.meanPctRemaining[2], rand.meanPctRemaining[2], 12.0);
  // The tail differs: RINGCAST ends at exactly zero; RANDCAST at F=3
  // leaves a residue.
  EXPECT_EQ(ring.meanPctRemaining.back(), 0.0);
  EXPECT_GT(rand.meanPctRemaining.back(), 0.0);
}

// §7.2 / Fig. 9: after a catastrophic failure (no healing), RINGCAST's
// miss ratio stays well below RANDCAST's at the same fanout.
TEST(PaperCatastrophic, RingCastBeatsRandCastAfterMassFailure) {
  auto stack = buildStack(1500, 15);
  stack.killRandomFraction(0.05);
  ParallelSweep sweep;
  const auto ring =
      sweep.measureEffectiveness(stack, Strategy::kRingCast, 3, 30, 500);
  const auto rand =
      sweep.measureEffectiveness(stack, Strategy::kRandCast, 3, 30, 501);
  EXPECT_LT(ring.avgMissPercent, rand.avgMissPercent);
  EXPECT_GT(rand.avgMissPercent, 1.0);  // RANDCAST F=3 misses plenty
}

// §7.2: the bigger the failure, the closer the two protocols get, but
// RINGCAST keeps the edge even at 10% dead (paper: still an order of
// magnitude at 10k nodes).
TEST(PaperCatastrophic, GapNarrowsWithFailureVolumeButPersists) {
  ParallelSweep sweep;
  double previousRingMiss = -1.0;
  for (const double kill : {0.02, 0.10}) {
    auto stack = buildStack(1500, 16);
    stack.killRandomFraction(kill);
    const auto ring =
        sweep.measureEffectiveness(stack, Strategy::kRingCast, 3, 30, 600);
    const auto rand =
        sweep.measureEffectiveness(stack, Strategy::kRandCast, 3, 30, 601);
    EXPECT_LE(ring.avgMissPercent, rand.avgMissPercent)
        << "kill fraction " << kill;
    EXPECT_GT(ring.avgMissPercent, previousRingMiss);
    previousRingMiss = ring.avgMissPercent;
  }
}

// §7.3 / Fig. 13: under churn, misses concentrate on young nodes; nodes
// past the warm-up age are almost always reached by RINGCAST.
TEST(PaperChurn, MissesConcentrateOnYoungNodes) {
  auto stack = buildStack(600, 17);
  const auto cycles = stack.runChurnUntilFullTurnover(0.01, 10'000);
  ASSERT_LT(cycles, 10'000u);  // full turnover reached
  const auto study = ParallelSweep().measureMissLifetimes(
      stack, Strategy::kRingCast, 3, 60, 700);

  if (study.missedLifetimes.total() == 0)
    GTEST_SKIP() << "no misses at this scale; nothing to classify";

  // Count misses of nodes younger vs older than ~ a view length of cycles.
  std::uint64_t youngMisses = 0;
  for (const auto& [lifetime, count] : study.missedLifetimes.sorted())
    if (lifetime <= 20) youngMisses += count;
  const double youngShare =
      static_cast<double>(youngMisses) /
      static_cast<double>(study.missedLifetimes.total());

  // Young nodes are a small fraction of the population (≈ 20 * churn
  // replacements / N), yet they must account for the majority of misses.
  EXPECT_GT(youngShare, 0.5);
}

// §7.3 / Fig. 11: under churn neither protocol achieves complete
// disseminations at moderate fanout, and RINGCAST has the lower miss
// ratio at low fanout.
TEST(PaperChurn, LowFanoutFavoursRingCast) {
  auto stack = buildStack(600, 18);
  stack.runChurnUntilFullTurnover(0.01, 10'000);
  ParallelSweep sweep;
  const auto ring =
      sweep.measureEffectiveness(stack, Strategy::kRingCast, 3, 40, 800);
  const auto rand =
      sweep.measureEffectiveness(stack, Strategy::kRandCast, 3, 40, 801);
  EXPECT_LT(ring.avgMissPercent, rand.avgMissPercent);
}

// §8 extension: a second ring raises d-link connectivity and cuts misses
// after severe failures.
TEST(PaperExtensions, SecondRingImprovesFailureResilience) {
  const double killFraction = 0.15;
  std::uint64_t singleMisses = 0;
  std::uint64_t doubleMisses = 0;
  ParallelSweep sweep;
  for (const std::uint32_t rings : {1u, 2u}) {
    auto stack = buildStack(800, 19, rings);
    stack.killRandomFraction(killFraction);
    const auto point =
        sweep.measureEffectiveness(stack, Strategy::kMultiRing, 2, 40, 900);
    (rings == 1 ? singleMisses : doubleMisses) = point.totalMisses;
  }
  EXPECT_GT(singleMisses, 0u);
  EXPECT_LT(doubleMisses, singleMisses);
}

// §5: the d-link graph alone (no r-links) must already be strongly
// connected after warm-up — that is the hybrid class's guarantee.
TEST(PaperStatic, RingDlinksAloneAreStronglyConnected) {
  const auto stack = buildStack(500, 20);
  const auto snapshot = stack.snapshot(Strategy::kRingCast);
  const auto adjacency = analysis::aliveAdjacency(
      snapshot, {.rlinks = false, .dlinks = true});
  EXPECT_EQ(analysis::stronglyConnectedComponentCount(adjacency), 1u);
}

}  // namespace
}  // namespace vs07
