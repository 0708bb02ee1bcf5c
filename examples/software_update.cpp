// Software-update scenario — "massive distribution of software and
// security patches" (paper introduction) on a network with continuous
// churn: machines come and go while the vendor pushes updates.
//
// The example runs the paper's §7.3 pipeline end to end: churn warm-up
// until the entire original population has been replaced, then a series
// of update pushes, reporting which machines missed an update and how
// old they were — reproducing the Fig. 13 insight that only fresh
// joiners are at risk, and quantifying the warm-up age after which
// delivery is near-certain.
//
//   $ ./software_update [--nodes 800] [--churn 0.005]
#include <cstdio>

#include "analysis/parallel_sweep.hpp"
#include "analysis/scenario.hpp"
#include "common/cli.hpp"
#include "common/histogram.hpp"

using namespace vs07;
using cast::Strategy;

int main(int argc, char** argv) {
  CliParser parser(
      "Software-update scenario: update pushes over a churning "
      "population; who misses updates, and how old are they?");
  parser.option("nodes", "population size (default 800)")
      .option("churn", "churn rate per cycle, in (0, 1) (default 0.005)")
      .option("pushes", "number of update pushes (default 50)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;

  const auto nodes =
      argOrExit([&] { return args->getPositiveUint32("nodes", 800); });
  const double churnRate =
      argOrExit([&] { return args->getRate("churn", 0.005); });
  const auto pushes =
      argOrExit([&] { return args->getPositiveUint32("pushes", 50); });

  std::printf("fleet of %u machines; churn %.2f%%/cycle\n", nodes,
              churnRate * 100.0);
  std::printf("running churn until the original fleet is fully replaced");
  auto scenario = analysis::Scenario::paperChurn(churnRate, nodes,
                                                 /*seed=*/20070101,
                                                 /*maxChurnCycles=*/100'000);
  std::printf(" ... %llu cycles\n\n",
              static_cast<unsigned long long>(scenario.churnCycles()));

  // Push `pushes` updates from random origins and classify the misses.
  const auto study = analysis::ParallelSweep().measureMissLifetimes(
      scenario, Strategy::kRingCast, /*fanout=*/3, pushes, /*seed=*/7);

  std::printf("pushed %u updates at fanout 3 over %u machines:\n", pushes,
              scenario.network().aliveCount());
  std::printf("  avg delivery   : %.4f%% of fleet per push\n",
              100.0 - study.effectiveness.avgMissPercent);
  std::printf("  total misses   : %llu machine-updates\n",
              static_cast<unsigned long long>(
                  study.effectiveness.totalMisses));

  if (study.missedLifetimes.empty()) {
    std::printf("  every machine received every update.\n");
    return 0;
  }

  std::printf("\nage of machines that missed an update (cycles in fleet):\n");
  std::fputs(renderLogBins(logBins(study.missedLifetimes)).c_str(), stdout);

  // The operational takeaway the paper draws in §7.3: nodes older than a
  // small warm-up age are effectively always reached.
  std::uint64_t youngMisses = 0;
  for (const auto& [lifetime, count] : study.missedLifetimes.sorted())
    if (lifetime <= 30) youngMisses += count;
  std::printf(
      "\n%.1f%% of misses hit machines younger than 30 cycles; machines "
      "past their join warm-up virtually never miss an update.\n"
      "Mitigation (paper §7.3): have fresh joiners gossip at a higher "
      "rate for their first few cycles.\n",
      100.0 * static_cast<double>(youngMisses) /
          static_cast<double>(study.missedLifetimes.total()));
  return 0;
}
