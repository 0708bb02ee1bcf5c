// Stress tests beyond the paper's random-failure model:
//
// 1. Failure *placement*: one contiguous ring arc vs the same number of
//    scattered random failures. The counter-intuitive result (which the
//    §5.1 partition discussion predicts once you see it): a localized
//    outage leaves the survivors' d-links path-connected — the ring minus
//    one arc is a chain, and RINGCAST completes over it even at F = 2.
//    Scattered failures are the *hard* case: they cut the ring into many
//    partitions whose bridging falls entirely to the r-links. RANDCAST is
//    indifferent to placement (it has no structure to destroy).
//
// 2. Heavy-tailed (Pareto) session churn vs the paper's geometric model
//    at matched mean lifetime. Real traces (Saroiu et al.) are heavy-
//    tailed: most sessions are short, so deaths concentrate on nodes
//    whose ring integration just finished, and the ring carries more
//    stale links at the same average turnover.
#include <array>
#include <cstdio>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "sim/session_churn.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

void arcVsRandom(const bench::Scale& scale, analysis::ParallelSweep& sweep,
                 bench::JsonReport& report) {
  std::printf("--- random kill vs contiguous ring-arc kill (10%% dead), "
              "miss%% ---\n");
  Table table({"protocol", "fanout", "random_kill", "arc_kill"});
  for (const bool multiRing : {false, true}) {
    for (const std::uint32_t fanout : {2u, 3u, 5u}) {
      std::vector<std::string> row{
          multiRing ? "MultiRing(2)" : "RingCast", std::to_string(fanout)};
      for (const bool arc : {false, true}) {
        const auto seed = scale.seed + fanout + (multiRing ? 100 : 0);
        auto scenario = analysis::Scenario::builder()
                            .nodes(scale.nodes)
                            .rings(multiRing ? 2 : 1)
                            .seed(seed)
                            .timing(scale.timing)
                            .build();
        if (arc)
          scenario.killContiguousArc(0.10);
        else
          scenario.killRandomFraction(0.10);
        const auto strategy =
            multiRing ? Strategy::kMultiRing : Strategy::kRingCast;
        const auto point = sweep.measureEffectiveness(
            scenario, strategy, fanout, scale.runs, seed + 7);
        row.push_back(fmtLog(point.avgMissPercent));
      }
      table.addRow(std::move(row));
    }
  }
  // RandCast baseline: indifferent to *where* the dead sit on the ring.
  for (const std::uint32_t fanout : {3u}) {
    std::vector<std::string> row{"RandCast", std::to_string(fanout)};
    for (const bool arc : {false, true}) {
      auto scenario = analysis::Scenario::paperStatic(
          scale.nodes, scale.seed + 55, scale.timing);
      if (arc)
        scenario.killContiguousArc(0.10);
      else
        scenario.killRandomFraction(0.10);
      const auto point = sweep.measureEffectiveness(
          scenario, Strategy::kRandCast, fanout, scale.runs,
          scale.seed + 55 + 7);
      row.push_back(fmtLog(point.avgMissPercent));
    }
    table.addRow(std::move(row));
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  report.addSeries(bench::tableSeries("arc_vs_random_kill", table));
}

void churnModels(const bench::Scale& scale, double meanLifetime,
                 analysis::ParallelSweep& sweep, bench::JsonReport& report) {
  // Fixed cycle budget (3x the mean lifetime) instead of full turnover:
  // Pareto's longest initial sessions would otherwise dominate runtime
  // without changing the comparison.
  const auto budget = static_cast<std::uint64_t>(3 * meanLifetime);
  constexpr std::uint32_t kNetworks = 2;  // average out network-level noise
  std::printf("\n--- geometric vs heavy-tailed churn at mean lifetime %.0f "
              "cycles (%llu churn cycles, %u networks/model): RingCast "
              "miss%% ---\n",
              meanLifetime, static_cast<unsigned long long>(budget),
              kNetworks);
  Table table({"churn_model", "F=2", "F=3", "F=6", "young_miss_share%"});
  for (const bool pareto : {false, true}) {
    const std::uint32_t runs = std::max(50u, scale.runs);
    std::array<double, 3> missSum{};
    std::uint64_t young = 0;
    std::uint64_t total = 0;
    for (std::uint32_t net = 0; net < kNetworks; ++net) {
      auto builder = analysis::Scenario::builder()
                         .nodes(scale.nodes)
                         .seed(scale.seed + (pareto ? 1 : 2) + net * 1000)
                         .timing(scale.timing);
      if (pareto)
        builder.sessionChurn(sim::paretoForMeanLifetime(meanLifetime, 1.5));
      else
        builder.churn(1.0 / meanLifetime);
      auto scenario = builder.build();
      scenario.runCycles(budget);

      const std::array<std::uint32_t, 3> fanouts{2u, 3u, 6u};
      for (std::size_t i = 0; i < fanouts.size(); ++i) {
        const auto study = sweep.measureMissLifetimes(
            scenario, Strategy::kRingCast, fanouts[i], runs,
            scenario.config().seed + fanouts[i]);
        missSum[i] += study.effectiveness.avgMissPercent;
        for (const auto& [lifetime, count] :
             study.missedLifetimes.sorted()) {
          total += count;
          young += lifetime <= 20 ? count : 0;
        }
      }
    }
    std::vector<std::string> row{pareto ? "pareto(a=1.5)" : "geometric"};
    for (const double sum : missSum) row.push_back(fmtLog(sum / kNetworks));
    row.push_back(total == 0 ? "-" : fmt(100.0 * young / total, 1));
    table.addRow(std::move(row));
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  report.addSeries(bench::tableSeries("churn_models", table));
  std::printf(
      "\nheavy-tailed sessions leave the ring with more stale links at the "
      "same average turnover: deaths concentrate on recently-integrated "
      "nodes, and misses spread beyond fresh joiners (lower young share).\n");
}

int run(const bench::Scale& scale, double meanLifetime) {
  bench::printHeader(
      "Failure placement and realistic churn (beyond-paper stress)",
      "a localized arc outage leaves the ring path-connected (RingCast "
      "completes even at F=2); scattered failures are the hard case; "
      "heavy-tailed churn degrades the ring more than geometric churn at "
      "equal mean lifetime",
      scale);
  bench::JsonReport report("adversarial_failures", scale);
  report.setParam("mean_lifetime", meanLifetime);
  auto sweep = bench::makeSweep(scale);
  arcVsRandom(scale, sweep, report);
  churnModels(scale, meanLifetime, sweep, report);
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Adversarial contiguous-arc failures and Pareto session churn "
      "compared against the paper's random/geometric models.");
  parser.option("mean-lifetime",
                "mean session length in cycles for the churn comparison "
                "(default 500 = the paper's 0.2%/cycle intensity)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/1'000,
                                         /*quickRuns=*/25);
  return run(scale, argOrExit([&] {
               return args->getDouble("mean-lifetime", 500.0);
             }));
}
