// Parameterized property sweeps over the gossip substrate: CYCLON view
// invariants across (view length, shuffle length) settings, and VICINITY
// ring convergence across view lengths — the "view lengths are not
// crucial" observation of §7 made testable.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/graph_analysis.hpp"
#include "cast/snapshot.hpp"
#include "common/stats.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/vicinity.hpp"
#include "net/transport.hpp"
#include "sim/bootstrap.hpp"
#include "sim/churn.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::gossip {
namespace {

struct Wiring {
  explicit Wiring(std::uint32_t n, Cyclon::Params cyclonParams,
                  Vicinity::Params vicinityParams, std::uint64_t seed)
      : network(n, seed),
        router(network),
        transport(router),
        cyclon(network, transport, router, cyclonParams, seed + 1),
        vicinity(network, transport, router, cyclon, vicinityParams,
                 seed + 2),
        engine(network, seed + 3) {
    engine.addProtocol(cyclon);
    engine.addProtocol(vicinity);
    sim::bootstrapStar(network, cyclon);
  }

  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport transport;
  Cyclon cyclon;
  Vicinity vicinity;
  sim::Engine engine;
};

// ---------------------------------------------------------------------
// CYCLON sweep over (viewLength, shuffleLength).

using CyclonParam = std::tuple<std::uint32_t, std::uint32_t>;

class CyclonProperties : public ::testing::TestWithParam<CyclonParam> {};

TEST_P(CyclonProperties, ViewInvariantsAndConnectivity) {
  const auto [viewLength, shuffleLength] = GetParam();
  Wiring w(250, {viewLength, shuffleLength}, {}, 17);
  w.engine.run(120);

  // Views fill to capacity and respect the bound.
  for (const NodeId id : w.network.aliveIds()) {
    const auto& view = w.cyclon.view(id);
    EXPECT_EQ(view.size(), viewLength);
    for (const auto& e : view.entries()) {
      EXPECT_NE(e.node, id);
      EXPECT_LT(e.node, w.network.totalCreated());
    }
  }

  // The r-link overlay is one strongly connected component.
  const auto snapshot = cast::snapshotRandom(w.network, w.cyclon);
  const auto adjacency = analysis::aliveAdjacency(snapshot);
  EXPECT_EQ(analysis::stronglyConnectedComponentCount(adjacency), 1u);

  // Indegree mean equals view length (conservation of links).
  const auto indegrees = analysis::aliveIndegrees(snapshot);
  RunningStats stats;
  for (const auto d : indegrees) stats.add(d);
  EXPECT_NEAR(stats.mean(), viewLength, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CyclonProperties,
    ::testing::Values(CyclonParam{4, 2}, CyclonParam{8, 4},
                      CyclonParam{16, 8}, CyclonParam{20, 8},
                      CyclonParam{20, 20}, CyclonParam{32, 5}),
    [](const ::testing::TestParamInfo<CyclonParam>& info) {
      return "view" + std::to_string(std::get<0>(info.param)) + "_shuffle" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// VICINITY sweep over view lengths: §7's "the view lengths are not
// crucial for the behavior of these algorithms".

class VicinityProperties : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(VicinityProperties, RingConvergesForAnyReasonableViewLength) {
  const std::uint32_t viewLength = GetParam();
  Vicinity::Params params;
  params.viewLength = viewLength;
  params.exchangeLength = std::max(2u, viewLength / 2);
  Wiring w(200, {20, 8}, params, 23);
  w.engine.run(120);

  const auto convergence =
      analysis::ringConvergence(w.network, w.vicinity);
  EXPECT_GE(convergence.bothAccuracy, 0.97) << "view length " << viewLength;

  // Views respect the bound and hold no self entries.
  for (const NodeId id : w.network.aliveIds()) {
    const auto& view = w.vicinity.view(id);
    EXPECT_LE(view.size(), viewLength);
    for (const auto& e : view.entries()) EXPECT_NE(e.node, id);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VicinityProperties,
                         ::testing::Values(4u, 8u, 12u, 20u, 32u),
                         [](const ::testing::TestParamInfo<std::uint32_t>&
                                info) {
                           return "vic" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Churn-rate sweep: population and view invariants survive any rate.

class ChurnProperties : public ::testing::TestWithParam<double> {};

TEST_P(ChurnProperties, InvariantsSurviveChurnRate) {
  const double rate = GetParam();
  Wiring w(300, {10, 5}, {10, 5}, 31);
  w.engine.run(50);

  sim::ChurnControl churn(w.network, rate, 37);
  churn.addJoinHandler(w.cyclon);
  churn.addJoinHandler(w.vicinity);
  w.engine.addControl(churn);
  w.engine.run(100);  // View contract violations would throw.

  EXPECT_EQ(w.network.aliveCount(), 300u);
  for (const NodeId id : w.network.aliveIds()) {
    for (const auto& e : w.cyclon.view(id).entries()) EXPECT_NE(e.node, id);
    for (const auto& e : w.vicinity.view(id).entries())
      EXPECT_NE(e.node, id);
  }

  // The overlay keeps one giant strongly connected component; only the
  // youngest joiners may momentarily sit outside it (they have out-links
  // immediately but gain in-links over their first cycles — the §7.3
  // warm-up effect behind Fig. 13). This holds while the mean lifetime
  // (1/rate cycles) comfortably exceeds the ~viewLength-cycle join
  // integration time; at rate = 1/viewLength the overlay genuinely
  // degrades, so the bound is only asserted in the operating regime.
  const auto snapshot = cast::snapshotRandom(w.network, w.cyclon);
  const auto adjacency = analysis::aliveAdjacency(snapshot);
  const auto giant = analysis::largestStronglyConnectedComponent(adjacency);
  if (rate <= 0.05) {
    EXPECT_GE(giant, snapshot.aliveCount() * 90 / 100)
        << "churn rate " << rate;
    // Outside the giant component: only a handful of stragglers.
    EXPECT_LE(analysis::stronglyConnectedComponentCount(adjacency),
              1 + (snapshot.aliveCount() - giant))
        << "churn rate " << rate;
  } else {
    // Beyond the design envelope the overlay frays but never collapses
    // to dust: a substantial connected core must survive.
    EXPECT_GE(giant, snapshot.aliveCount() / 5) << "churn rate " << rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChurnProperties,
                         ::testing::Values(0.002, 0.01, 0.05, 0.10),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "rate" +
                                  std::to_string(static_cast<int>(
                                      info.param * 1000));
                         });

}  // namespace
}  // namespace vs07::gossip
