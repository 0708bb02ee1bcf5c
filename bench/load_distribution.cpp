// Verifies the paper's load-distribution claim (§2 metric 5, asserted in
// §7: "both protocols distribute the dissemination load uniformly on all
// participating nodes"): per-node messages forwarded and received over
// many disseminations, with a Gini coefficient as the inequality summary
// (0 = perfectly even). Contrast with the star overlay of §3, whose hub
// carries everything.
#include <cstdio>

#include "bench_common.hpp"
#include "cast/session.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "overlay/graph.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

struct LoadTotals {
  std::vector<double> forwards;
  std::vector<double> received;
};

/// Publishes `runs` messages through one session and accumulates the
/// per-node load counters of every report, restricted to alive nodes.
LoadTotals accumulateLoad(cast::SnapshotSession session, std::uint32_t runs) {
  const auto& snapshot = session.overlay();
  LoadTotals totals;
  totals.forwards.assign(snapshot.totalIds(), 0.0);
  totals.received.assign(snapshot.totalIds(), 0.0);
  for (std::uint32_t r = 0; r < runs; ++r) {
    const auto report = session.publishFromRandom();
    for (NodeId id = 0; id < snapshot.totalIds(); ++id) {
      totals.forwards[id] += report.forwardsPerNode[id];
      totals.received[id] += report.receivedPerNode[id];
    }
  }
  LoadTotals alive;
  for (const NodeId id : snapshot.aliveIds()) {
    alive.forwards.push_back(totals.forwards[id]);
    alive.received.push_back(totals.received[id]);
  }
  return alive;
}

void addRows(Table& table, const char* name, const LoadTotals& load) {
  const auto f = summarize(load.forwards);
  const auto r = summarize(load.received);
  table.addRow({name, "forwarded", fmt(f.mean, 1), fmt(f.stddev, 1),
                fmt(f.min, 0), fmt(f.p99, 0), fmt(f.max, 0),
                fmt(giniCoefficient(load.forwards), 3)});
  table.addRow({name, "received", fmt(r.mean, 1), fmt(r.stddev, 1),
                fmt(r.min, 0), fmt(r.p99, 0), fmt(r.max, 0),
                fmt(giniCoefficient(load.received), 3)});
}

int run(const bench::Scale& scale, std::uint32_t fanout) {
  bench::printHeader(
      "Load distribution (paper §2/§7 claim)",
      "RandCast and RingCast spread forwarding load evenly (tiny Gini); a "
      "star overlay concentrates everything on its hub (Gini -> 1)",
      scale);

  bench::JsonReport report("load_distribution", scale);
  report.setParam("fanout", fanout);
  auto scenario = bench::buildStatic(scale);
  auto sessionFor = [&](Strategy strategy, std::uint64_t seed) {
    return scenario.snapshotSession({.strategy = strategy,
                                     .fanout = fanout,
                                     .seed = seed,
                                     .recordLoad = true});
  };

  Table table({"protocol", "metric", "mean", "stddev", "min", "p99", "max",
               "gini"});
  addRows(table, "RandCast",
          accumulateLoad(sessionFor(Strategy::kRandCast, scale.seed + 1),
                         scale.runs));
  addRows(table, "RingCast",
          accumulateLoad(sessionFor(Strategy::kRingCast, scale.seed + 2),
                         scale.runs));
  // Baseline with known skew: flooding on a star overlay.
  cast::SnapshotSession starFlood(
      cast::snapshotGraph(overlay::makeStar(scale.nodes, /*hub=*/0)),
      {.strategy = Strategy::kFlood,
       .fanout = fanout,
       .seed = scale.seed + 3,
       .recordLoad = true});
  addRows(table, "StarFlood", accumulateLoad(std::move(starFlood), scale.runs));

  bench::printTable(table, scale.csv);
  std::printf("\nfanout %u, %u disseminations per protocol\n", fanout,
              scale.runs);

  report.addSeries(bench::tableSeries("load_summary", table));
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Load distribution across nodes (paper §2 metric 5): per-node "
      "forwarded/received message counts and Gini coefficients.");
  parser.option("fanout", "fanout to run at (default 5)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/2'000,
                                         /*quickRuns=*/50);
  return run(scale, argOrExit([&] {
               return args->getPositiveUint32("fanout", 5);
             }));
}
