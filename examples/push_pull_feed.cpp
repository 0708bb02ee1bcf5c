// Live news feed with push + pull — the §8 future-work pipeline end to
// end: a publisher keeps emitting items while the network suffers a
// partial outage; push delivers instantly to almost everyone, and the
// anti-entropy pull layer quietly backfills whoever the push wave missed.
//
//   $ ./push_pull_feed [--nodes 1000]
#include <cstdio>
#include <vector>

#include "analysis/scenario.hpp"
#include "common/cli.hpp"

using namespace vs07;
using cast::Strategy;

int main(int argc, char** argv) {
  CliParser parser("Live push+pull feed (paper §8 future work).");
  parser.option("nodes", "population size (default 1000)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto nodes =
      argOrExit([&] { return args->getPositiveUint32("nodes", 1000); });

  // A warmed-up scenario plus one live push+pull session: fanout 2 keeps
  // push redundancy deliberately minimal, anti-entropy runs every cycle.
  auto scenario = analysis::Scenario::paperStatic(nodes, /*seed=*/61);
  auto& feed = scenario.liveSession(
      {.strategy = Strategy::kPushPull, .fanout = 2, .pullInterval = 1});
  std::printf("feed network of %u nodes ready (fanout %u, pull every "
              "cycle)\n\n",
              nodes, feed.options().fanout);

  std::printf("%-6s %-10s %-14s %-14s %-12s\n", "item", "alive",
              "miss% at push", "miss% +2 cyc", "pull deliveries");
  Rng rng(66);
  std::vector<std::uint64_t> items;
  for (int item = 1; item <= 8; ++item) {
    // Item 4 coincides with a sudden outage of 15% of the network; the
    // overlay gets no healing time before the push (worst case, §7.2).
    if (item == 4) {
      scenario.killRandomFraction(0.15);
      std::printf("  -- outage: 15%% of nodes fail --\n");
    }
    const NodeId origin = scenario.network().randomAlive(rng);
    const auto pushReport = feed.publish(origin);
    const auto id = feed.lastDataId();
    items.push_back(id);
    scenario.runCycles(2);
    const auto settled = feed.report(id);
    std::printf("%-6d %-10u %-14.3f %-14.3f %-12llu\n", item,
                scenario.network().aliveCount(),
                pushReport.missRatioPercent(), settled.missRatioPercent(),
                static_cast<unsigned long long>(settled.pullDelivered));
  }

  scenario.runCycles(5);
  std::printf("\nfinal state after 5 more cycles:\n");
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto report = feed.report(items[i]);
    std::printf("  item %zu: miss %.4f%%, %llu of %llu deliveries via pull\n",
                i + 1, report.missRatioPercent(),
                static_cast<unsigned long long>(report.pullDelivered),
                static_cast<unsigned long long>(report.notified));
  }
  std::printf(
      "\npush does the bulk instantly; pull erases the misses the outage "
      "caused — the reliability improvement the paper's §8 anticipates.\n");
  return 0;
}
