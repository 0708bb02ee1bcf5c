// Tests for the two §7.3/§8 extensions added on top of the core protocols:
// Harary-band d-links (Vicinity::ringBand / cast::snapshotBand) and the
// joiner gossip boost (sim::joinerBoost).
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/parallel_sweep.hpp"
#include "analysis/graph_analysis.hpp"
#include "analysis/scenario.hpp"
#include "cast/selector.hpp"
#include "cast/snapshot.hpp"
#include "common/expect.hpp"
#include "sim/churn.hpp"
#include "sim/failures.hpp"

namespace vs07 {
namespace {

analysis::Scenario smallStack(std::uint32_t n, std::uint64_t seed,
                              bool warm = true) {
  auto builder = analysis::Scenario::builder().nodes(n).seed(seed);
  if (!warm) builder.noWarmup();
  return builder.build();
}

TEST(RingBand, WidthOneEqualsRingNeighbors) {
  auto stack = smallStack(150, 41);
  for (const NodeId id : stack.network().aliveIds()) {
    const auto band = stack.vicinity().ringBand(id, 1);
    const auto ring = stack.vicinity().ringNeighbors(id);
    ASSERT_EQ(band.size(), 2u);
    EXPECT_EQ(band[0], ring.successor);
    EXPECT_EQ(band[1], ring.predecessor);
  }
}

TEST(RingBand, MatchesGroundTruthCirculant) {
  auto stack = smallStack(200, 42);
  const auto& network = stack.network();

  // Ground truth ring order.
  std::vector<NodeId> sorted(network.aliveIds());
  std::sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    return network.seqId(a) < network.seqId(b);
  });
  const auto n = sorted.size();
  std::vector<std::size_t> rankOf(n);
  for (std::size_t i = 0; i < n; ++i) rankOf[sorted[i]] = i;

  constexpr std::uint32_t kWidth = 3;
  std::uint32_t perfect = 0;
  for (const NodeId id : network.aliveIds()) {
    const auto band = stack.vicinity().ringBand(id, kWidth);
    bool ok = band.size() == 2 * kWidth;
    for (std::uint32_t step = 1; ok && step <= kWidth; ++step) {
      const NodeId succ = sorted[(rankOf[id] + step) % n];
      const NodeId pred = sorted[(rankOf[id] + n - step) % n];
      ok = std::find(band.begin(), band.end(), succ) != band.end() &&
           std::find(band.begin(), band.end(), pred) != band.end();
    }
    perfect += ok;
  }
  EXPECT_GE(perfect, network.aliveCount() * 95 / 100);
}

TEST(RingBand, SmallViewReturnsWhatExists) {
  auto stack = smallStack(30, 43, /*warm=*/false);  // views empty
  EXPECT_TRUE(stack.vicinity().ringBand(0, 2).empty());
}

TEST(RingBand, WidthZeroRejected) {
  auto stack = smallStack(30, 44, /*warm=*/false);
  EXPECT_THROW(stack.vicinity().ringBand(0, 0), ContractViolation);
}

TEST(SnapshotBand, DlinkGraphIsStronglyConnectedAndWide) {
  auto stack = smallStack(300, 45);
  const auto snapshot =
      cast::snapshotBand(stack.network(), stack.cyclon(), stack.vicinity(), 2);
  for (const NodeId id : snapshot.aliveIds())
    EXPECT_EQ(snapshot.dlinks(id).size(), 4u);
  const auto adjacency = analysis::aliveAdjacency(
      snapshot, {.rlinks = false, .dlinks = true});
  EXPECT_EQ(analysis::stronglyConnectedComponentCount(adjacency), 1u);
}

TEST(SnapshotBand, BandReliabilityDependsOnKeepingRlinks) {
  // Two regimes, one experiment each — the hybrid design insight of §5:
  //
  //  * fanout > |d-links|: the wider band adds deterministic coverage on
  //    top of random bridges, so width 3 beats width 1;
  //  * fanout <= |d-links|: every forward is a d-link, the probabilistic
  //    component is crowded out, and a run of `width` consecutive dead
  //    nodes partitions the dissemination — width 3 gets *worse*, not
  //    better. Determinism alone is not enough (that's §3's lesson).
  auto missesAt = [](std::uint32_t width, std::uint32_t fanout) {
    auto stack = smallStack(500, 46);
    stack.killRandomFraction(0.20);
    const auto snapshot = cast::snapshotBand(stack.network(), stack.cyclon(),
                                             stack.vicinity(), width);
    const cast::RingCastSelector selector;  // hybrid rule over the band
    return analysis::ParallelSweep().measureEffectiveness(snapshot, selector,
                                                         fanout, 30, 47)
        .totalMisses;
  };

  // Regime 1: r-links survive (fanout 8 > 6 d-links).
  const auto narrowHighF = missesAt(1, 8);
  const auto wideHighF = missesAt(3, 8);
  EXPECT_LE(wideHighF, narrowHighF);

  // Regime 2: determinism-only forwarding (fanout 2 <= 6 d-links).
  const auto narrowLowF = missesAt(1, 2);
  const auto wideLowF = missesAt(3, 2);
  EXPECT_GT(narrowLowF, 0u);
  EXPECT_GT(wideLowF, narrowLowF);
}

TEST(JoinerBoost, BoostedNodesStepMoreOften) {
  sim::Network network(10, 48);
  sim::Engine engine(network, 49);
  struct Counter final : sim::CycleProtocol {
    void step(NodeId self) override { ++steps[self]; }
    std::map<NodeId, int> steps;
  } counter;
  engine.addProtocol(counter);
  // Nodes join at cycle 0; boost nodes younger than 5 cycles 3x.
  engine.setStepBoost(sim::joinerBoost(network, 3, 5));
  engine.run(10);
  // Cycles 0-4 boosted (3 steps), cycles 5-9 normal: 5*3 + 5 = 20.
  EXPECT_EQ(counter.steps[0], 20);
}

TEST(JoinerBoost, AcceleratesJoinWarmup) {
  // The §7.3 claim: boosted joiners build their indegree faster. Compare
  // a fresh joiner's r-link indegree after a few cycles with and without
  // the boost.
  auto indegreeAfterJoin = [](bool boosted) {
    auto stack = smallStack(300, 50);
    if (boosted)
      stack.engine().setStepBoost(sim::joinerBoost(stack.network(), 4, 10));
    const NodeId joiner = stack.network().spawn(stack.engine().cycle());
    Rng rng(51);
    NodeId introducer = joiner;
    while (introducer == joiner)
      introducer = stack.network().randomAlive(rng);
    stack.cyclon().onJoin(joiner, introducer);
    stack.runCycles(5);
    const auto snapshot = stack.snapshotRandom();
    std::uint32_t indegree = 0;
    for (const NodeId id : snapshot.aliveIds())
      for (const NodeId link : snapshot.rlinks(id))
        indegree += link == joiner;
    return indegree;
  };
  const auto plain = indegreeAfterJoin(false);
  const auto boosted = indegreeAfterJoin(true);
  EXPECT_GT(boosted, plain);
  // With a 4x boost over 5 cycles the joiner initiates ~20 shuffles and
  // should be known by roughly that many peers.
  EXPECT_GE(boosted, 10u);
}

}  // namespace
}  // namespace vs07
