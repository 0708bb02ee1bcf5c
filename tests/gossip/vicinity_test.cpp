#include "gossip/vicinity.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/graph_analysis.hpp"
#include "analysis/scenario.hpp"
#include "gossip/cyclon.hpp"
#include "net/transport.hpp"
#include "sim/bootstrap.hpp"
#include "sim/churn.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::gossip {
namespace {

/// Full two-layer wiring: CYCLON feeding VICINITY, as the paper runs it.
struct VicinityHarness {
  explicit VicinityHarness(std::uint32_t n, std::uint64_t seed = 1,
                           Vicinity::Params vicParams = {},
                           ProfileFn profile = {})
      : network(n, seed),
        router(network),
        transport(router),
        cyclon(network, transport, router, {20, 8}, seed + 1),
        vicinity(network, transport, router, cyclon, vicParams, seed + 2,
                 std::move(profile)),
        engine(network, seed + 3) {
    engine.addProtocol(cyclon);
    engine.addProtocol(vicinity);
  }

  void warmup(std::uint32_t cycles = 100) {
    sim::bootstrapStar(network, cyclon);
    engine.run(cycles);
  }

  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport transport;
  Cyclon cyclon;
  Vicinity vicinity;
  sim::Engine engine;
};

TEST(Vicinity, ParamsValidated) {
  sim::Network net(4, 1);
  sim::MessageRouter router(net);
  net::ImmediateTransport transport(router);
  Cyclon cyclon(net, transport, router, {5, 3}, 2);
  EXPECT_THROW(Vicinity(net, transport, router, cyclon, {0, 4}, 3),
               ContractViolation);
  EXPECT_THROW(Vicinity(net, transport, router, cyclon, {4, 0}, 3),
               ContractViolation);
}

TEST(Vicinity, EmptyViewMeansNoRingNeighbors) {
  VicinityHarness h(10);
  const auto ring = h.vicinity.ringNeighbors(3);
  EXPECT_EQ(ring.successor, kNoNode);
  EXPECT_EQ(ring.predecessor, kNoNode);
}

TEST(Vicinity, ConvergesToTrueRingWithinPaperWarmup) {
  VicinityHarness h(300);
  h.warmup(100);  // the paper's warm-up budget
  const auto convergence =
      analysis::ringConvergence(h.network, h.vicinity);
  EXPECT_GE(convergence.successorAccuracy, 0.99);
  EXPECT_GE(convergence.predecessorAccuracy, 0.99);
  EXPECT_GE(convergence.bothAccuracy, 0.98);
}

TEST(Vicinity, ConvergedViewsHoldTheRingBand) {
  // The converged view is a balanced band around the node (§6: "peers
  // with gradually higher and lower sequence IDs"): it must contain the
  // k nearest successors and k nearest predecessors, for k = vic/2.
  VicinityHarness h(200);
  h.warmup(100);
  const auto k = h.vicinity.params().viewLength / 2;

  // Ground truth: alive nodes sorted by sequence id.
  std::vector<NodeId> sorted(h.network.aliveIds());
  std::sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    return h.network.seqId(a) < h.network.seqId(b);
  });
  const auto n = sorted.size();
  std::vector<std::size_t> rankOf(n);
  for (std::size_t i = 0; i < n; ++i) rankOf[sorted[i]] = i;

  std::uint32_t perfectBands = 0;
  for (const NodeId self : h.network.aliveIds()) {
    const auto& view = h.vicinity.view(self);
    bool perfect = view.size() >= 2 * k;
    for (std::size_t step = 1; perfect && step <= k; ++step) {
      const NodeId succ = sorted[(rankOf[self] + step) % n];
      const NodeId pred = sorted[(rankOf[self] + n - step) % n];
      perfect = view.contains(succ) && view.contains(pred);
    }
    perfectBands += perfect;
  }
  // Allow a few stragglers (the band's far edge refreshes lazily).
  EXPECT_GE(perfectBands, h.network.aliveCount() * 90 / 100);
}

TEST(Vicinity, RingNeighborsAreMutualAfterConvergence) {
  VicinityHarness h(150);
  h.warmup(100);
  std::uint32_t mutual = 0;
  for (const NodeId self : h.network.aliveIds()) {
    const auto ring = h.vicinity.ringNeighbors(self);
    if (ring.successor != kNoNode &&
        h.vicinity.ringNeighbors(ring.successor).predecessor == self)
      ++mutual;
  }
  EXPECT_GE(mutual, h.network.aliveCount() * 98 / 100);
}

TEST(Vicinity, SelfHealsAfterCatastrophicFailure) {
  VicinityHarness h(300);
  h.warmup(100);
  Rng rng(4);
  sim::killRandomFraction(h.network, 0.10, rng);
  // Immediately after the failure the ring is damaged...
  const auto before = analysis::ringConvergence(h.network, h.vicinity);
  EXPECT_LT(before.bothAccuracy, 0.95);
  // ...and gossip repairs it (§7.2: healing was deliberately disabled in
  // the paper's measurements, but the capability matters for real use).
  h.engine.run(60);
  const auto after = analysis::ringConvergence(h.network, h.vicinity);
  EXPECT_GE(after.bothAccuracy, 0.97);
}

TEST(Vicinity, JoinerIntegratesIntoRing) {
  VicinityHarness h(200);
  h.warmup(100);
  Rng rng(9);
  const NodeId joiner = h.network.spawn(h.engine.cycle());
  const NodeId introducer = h.network.randomAlive(rng);
  h.cyclon.onJoin(joiner, introducer);
  h.vicinity.onJoin(joiner, introducer);
  h.engine.run(30);

  // The joiner must know its true ring neighbours...
  const auto convergence = analysis::ringConvergence(h.network, h.vicinity);
  EXPECT_GE(convergence.bothAccuracy, 0.99);
  // ...and be known by them (incoming d-links).
  const auto ring = h.vicinity.ringNeighbors(joiner);
  ASSERT_NE(ring.successor, kNoNode);
  EXPECT_EQ(h.vicinity.ringNeighbors(ring.successor).predecessor, joiner);
}

TEST(Vicinity, CustomProfileOrdersTheRing) {
  // Reverse ordering: profile = ~seqId flips the ring direction.
  VicinityHarness plain(100, /*seed=*/11);
  plain.warmup(80);

  sim::Network& net = plain.network;
  // Build a second harness with inverted profiles over an identical
  // network seed; successors under inversion = predecessors under plain.
  VicinityHarness inverted(100, /*seed=*/11, Vicinity::Params{},
                           [&inv = inverted](NodeId n) -> SequenceId {
                             return ~inv.network.seqId(n);
                           });
  inverted.warmup(80);
  (void)net;

  std::uint32_t flipped = 0;
  for (const NodeId id : inverted.network.aliveIds()) {
    const auto invRing = inverted.vicinity.ringNeighbors(id);
    const auto plainRing = plain.vicinity.ringNeighbors(id);
    // Same seed => same sequence ids in both networks, so the inverted
    // successor should equal the plain predecessor for converged nodes.
    flipped += invRing.successor == plainRing.predecessor;
  }
  EXPECT_GE(flipped, 95u);
}

TEST(Vicinity, TimeoutEvictsDeadTarget) {
  VicinityHarness h(50);
  h.warmup(60);
  // Pick a node and kill its successor; within a few cycles the dead
  // entry must leave the view via the request-timeout path.
  const NodeId node = h.network.aliveIds().front();
  const NodeId victim = h.vicinity.ringNeighbors(node).successor;
  ASSERT_NE(victim, kNoNode);
  h.network.kill(victim);
  h.engine.run(30);
  EXPECT_FALSE(h.vicinity.view(node).contains(victim));
}

TEST(Vicinity, DeterministicUnderSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    VicinityHarness h(80, seed);
    h.warmup(50);
    std::uint64_t hash = 0;
    for (const NodeId id : h.network.aliveIds()) {
      const auto ring = h.vicinity.ringNeighbors(id);
      hash = mix64(hash ^ ring.successor);
      hash = mix64(hash ^ ring.predecessor);
    }
    return hash;
  };
  EXPECT_EQ(fingerprint(3), fingerprint(3));
}

}  // namespace
}  // namespace vs07::gossip
