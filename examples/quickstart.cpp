// Quickstart: build a RINGCAST system, let it self-organise, and
// disseminate a message — the complete public-API tour.
//
//   $ ./quickstart [--nodes 1000]
//
// Steps:
//   1. Scenario::builder() wires network + CYCLON (r-links) + VICINITY
//      (d-links) and runs the paper's star bootstrap + 100 warm-up cycles.
//   2. snapshotSession() freezes the overlay; publish() multicasts.
//   3. The same DeliveryReport API compares RANDCAST on the same network.
#include <cstdio>

#include "analysis/graph_analysis.hpp"
#include "analysis/scenario.hpp"
#include "common/cli.hpp"

using namespace vs07;
using cast::Strategy;

int main(int argc, char** argv) {
  CliParser parser("RingCast quickstart: one dissemination, step by step.");
  parser.option("nodes", "population size (default 1000)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto nodes =
      argOrExit([&] { return args->getPositiveUint32("nodes", 1000); });

  // 1. One builder call wires and self-organises the whole system: every
  //    node runs CYCLON (random partial view) and VICINITY (converges its
  //    view to the ring neighbours).
  std::printf("self-organising %u nodes from a star topology...\n", nodes);
  auto scenario =  // seed 2007: Middleware 2007
      analysis::Scenario::builder().nodes(nodes).seed(2007).build();

  const auto convergence =
      analysis::ringConvergence(scenario.network(), scenario.vicinity());
  std::printf("ring converged: %.1f%% of nodes know both true neighbours\n",
              100.0 * convergence.bothAccuracy);

  // 2. Freeze the overlay and disseminate from node 0 with fanout 3:
  //    each node forwards to its 2 ring neighbours + 1 random peer.
  auto ringCast = scenario.snapshotSession(
      {.strategy = Strategy::kRingCast, .fanout = 3, .seed = 1});
  const auto report = ringCast.publish(/*origin=*/0);

  std::printf("\ndissemination from node 0 (fanout %u):\n", report.fanout);
  std::printf("  notified  : %llu / %llu nodes (miss ratio %.4f%%)\n",
              static_cast<unsigned long long>(report.notified),
              static_cast<unsigned long long>(report.aliveTotal),
              report.missRatioPercent());
  std::printf("  complete  : %s\n", report.complete() ? "yes" : "no");
  std::printf("  last hop  : %u\n", report.lastHop);
  std::printf("  messages  : %llu total = %llu virgin + %llu redundant\n",
              static_cast<unsigned long long>(report.messagesTotal),
              static_cast<unsigned long long>(report.messagesVirgin),
              static_cast<unsigned long long>(report.messagesRedundant));

  std::printf("\nper-hop coverage:\n");
  for (std::size_t hop = 0; hop < report.newlyNotifiedPerHop.size(); ++hop)
    std::printf("  hop %2zu: +%llu nodes (%.2f%% still unreached)\n", hop,
                static_cast<unsigned long long>(
                    report.newlyNotifiedPerHop[hop]),
                report.percentNotReachedAfterHop(
                    static_cast<std::uint32_t>(hop)));

  // 3. Contrast with pure RANDCAST at the same fanout on the same network.
  auto randCast = scenario.snapshotSession(
      {.strategy = Strategy::kRandCast, .fanout = 3, .seed = 1});
  const auto randReport = randCast.publish(0);
  std::printf(
      "\nfor comparison, RandCast at the same fanout missed %llu nodes "
      "(%.4f%%).\n",
      static_cast<unsigned long long>(randReport.missed.size()),
      randReport.missRatioPercent());
  return 0;
}
