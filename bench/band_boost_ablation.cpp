// Two further §7.3/§8 ablations:
//
// 1. Harary-band d-links ("design gossiping protocols that form Harary
//    graphs of higher connectivity", §8): d-links = the `w` nearest ring
//    successors + predecessors, giving H(2w, n) at convergence. The
//    matrix over (band width x fanout) exposes the §5 design insight:
//    wider bands help only while the fanout leaves room for r-links —
//    once d-links swallow the whole fanout, dissemination degenerates to
//    pure determinism and a run of w dead nodes partitions it.
//
// 2. Joiner gossip boost ("new nodes can gossip at an arbitrarily higher
//    rate for the first few cycles", §7.3): young-node miss ratio under
//    churn with and without the boost.
#include <cstdio>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

void bandMatrix(const bench::Scale& scale, analysis::ParallelSweep& sweep,
                bench::JsonReport& report) {
  std::printf("--- Harary band: miss%% after a 20%% catastrophic failure "
              "(rows: band width; columns: fanout) ---\n");
  Table table({"band_width", "dlinks", "F=2", "F=4", "F=8", "F=12"});
  for (const std::uint32_t width : {1u, 2u, 3u}) {
    auto scenario = analysis::Scenario::paperCatastrophic(
        0.20, scale.nodes, scale.seed + width, scale.timing);
    const auto snapshot = scenario.snapshotBand(width);
    std::vector<std::string> row{std::to_string(width),
                                 std::to_string(2 * width)};
    for (const std::uint32_t fanout : {2u, 4u, 8u, 12u}) {
      // The hybrid rule over the band snapshot (RingCast semantics).
      const auto point = sweep.measureEffectiveness(
          snapshot, cast::selectorFor(Strategy::kRingCast), fanout,
          scale.runs, scale.seed + width + fanout);
      row.push_back(fmtLog(point.avgMissPercent));
    }
    table.addRow(std::move(row));
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  report.addSeries(bench::tableSeries("harary_band_matrix", table));
  std::printf(
      "\nreading guide: below the diagonal (fanout <= 2*width) every "
      "forward is deterministic and wider bands *hurt*; above it they "
      "add coverage on top of the random bridges and help.\n");
}

void boostAblation(const bench::Scale& scale, double churnRate,
                   analysis::ParallelSweep& sweep,
                   bench::JsonReport& report) {
  std::printf("\n--- joiner gossip boost (%s): young-node misses under "
              "churn, RingCast F=3 ---\n",
              "\"gossip at a higher rate for the first few cycles\"");
  Table table({"boost", "miss%_overall", "misses_lifetime<=20",
               "misses_lifetime>20"});
  for (const std::uint32_t factor : {1u, 4u}) {
    bench::Scale churnScale = scale;
    churnScale.seed = scale.seed + factor;
    auto scenario = bench::buildChurned(churnScale, churnRate,
                                        /*extraSeed=*/factor);
    if (factor > 1)
      scenario.engine().setStepBoost(
          sim::joinerBoost(scenario.network(), factor, 20));
    // Let the boost act on the current joiner cohort, with churn still
    // running, then freeze and measure.
    scenario.runCycles(50);
    const auto study = sweep.measureMissLifetimes(
        scenario, Strategy::kRingCast, 3, std::max(50u, scale.runs),
        churnScale.seed + 9);
    std::uint64_t young = 0;
    std::uint64_t old = 0;
    for (const auto& [lifetime, count] : study.missedLifetimes.sorted())
      (lifetime <= 20 ? young : old) += count;
    table.addRow({factor == 1 ? "off" : std::to_string(factor) + "x",
                  fmtLog(study.effectiveness.avgMissPercent),
                  std::to_string(young), std::to_string(old)});
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  report.addSeries(bench::tableSeries("joiner_boost", table));
}

int run(const bench::Scale& scale, double churnRate) {
  bench::printHeader(
      "Harary-band + joiner-boost ablations (paper §7.3/§8 extensions)",
      "wider deterministic bands help only while fanout leaves room for "
      "r-links; boosting fresh joiners' gossip rate removes most "
      "young-node misses",
      scale);
  bench::JsonReport report("band_boost_ablation", scale);
  report.setParam("churn_rate", churnRate);
  auto sweep = bench::makeSweep(scale);
  bandMatrix(scale, sweep, report);
  boostAblation(scale, churnRate, sweep, report);
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Ablations of the Harary-band d-link extension (§8) and the joiner "
      "gossip boost (§7.3).");
  parser.option("churn", "churn rate per cycle (default 0.005)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/1'000,
                                         /*quickRuns=*/25);
  return run(scale,
             argOrExit([&] { return args->getRate("churn", 0.005); }));
}
