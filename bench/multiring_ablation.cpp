// Ablation of the §8 reliability extension: multi-ring RINGCAST. Nodes
// maintain k independent rings (different random id per ring); the d-link
// graph's connectivity grows with k, trading gossip maintenance traffic
// for failure resilience.
//
// Expected shape: at a fixed low fanout, the miss ratio after a severe
// catastrophic failure drops sharply as rings are added; in a fail-free
// network all variants are already complete (single ring suffices).
#include <cstdio>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

int run(const bench::Scale& scale, std::uint32_t fanout) {
  bench::printHeader(
      "Multi-ring RingCast ablation (paper §8 extension)",
      "more rings = higher d-link connectivity = lower miss ratio after "
      "catastrophic failures, at higher maintenance cost",
      scale);

  bench::JsonReport report("multiring_ablation", scale);
  report.setParam("fanout", fanout);
  auto sweep = bench::makeSweep(scale);

  Table table({"rings", "dlinks/node", "miss%_failfree", "miss%_kill5%",
               "miss%_kill10%", "miss%_kill20%"});

  for (const std::uint32_t rings : {1u, 2u, 3u}) {
    std::vector<std::string> row{std::to_string(rings)};
    bool first = true;
    for (const double kill : {0.0, 0.05, 0.10, 0.20}) {
      auto scenario = analysis::Scenario::builder()
                          .nodes(scale.nodes)
                          .rings(rings)
                          .seed(scale.seed + rings)
                          .timing(scale.timing)
                          .build();
      if (kill > 0.0) scenario.killRandomFraction(kill);
      const auto snapshot = scenario.snapshot(Strategy::kMultiRing);
      if (first) {
        // Average d-link out-degree (union of rings, deduplicated).
        std::uint64_t dlinks = 0;
        for (const NodeId id : snapshot.aliveIds())
          dlinks += snapshot.dlinks(id).size();
        row.push_back(
            fmt(static_cast<double>(dlinks) / snapshot.aliveCount(), 2));
        first = false;
      }
      const auto point = sweep.measureEffectiveness(
          snapshot, cast::selectorFor(Strategy::kMultiRing), fanout,
          scale.runs, scale.seed + rings + 7);
      row.push_back(fmtLog(point.avgMissPercent));
    }
    table.addRow(std::move(row));
  }

  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  std::printf("\nfanout %u, %u runs per cell\n", fanout, scale.runs);

  report.addSeries(bench::tableSeries("multiring_miss", table));
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Multi-ring RingCast ablation (§8): miss ratio vs ring count under "
      "catastrophic failures.");
  parser.option("fanout", "fanout to run at (default 2)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/1'500,
                                         /*quickRuns=*/25);
  return run(scale, argOrExit([&] {
               return args->getPositiveUint32("fanout", 2);
             }));
}
