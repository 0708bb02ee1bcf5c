// Partition-and-heal: per-side coverage of a message published *during*
// a network split, and recovery time after the split heals
// (sim/network_model's PartitionSchedule on the live path).
//
// The ring is split into two seq-contiguous halves right after warm-up;
// while the blackout lasts, all cross-half traffic — gossip and
// dissemination alike — is dropped. A message published on side 0 then
// shows the §5.1 story live:
//
//   * the publisher's side completes (the d-link chain of each half
//     stays connected — a ring split into arcs is still a chain per
//     side, so RINGCAST covers its own side deterministically);
//   * the far side stays dark for the whole split: no strategy crosses
//     a blackout;
//   * after healing, only the pull layer (§8 PUSHPULL) recovers: one
//     anti-entropy pull across the former boundary re-pushes the
//     message through the healed side, reaching 100% within a bounded
//     number of cycles. Push-only strategies never retransmit — their
//     far side stays at 0% forever, which is precisely why the paper
//     calls pull "expected to significantly improve reliability".
//
// One scenario per strategy, each seeded from its cell identity and run
// on the worker pool; series merge in canonical strategy order, so the
// output is bit-identical for any --threads value.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "cast/strategy.hpp"
#include "common/table.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

struct HealResult {
  std::vector<double> side0;  ///< per-cycle coverage %, publisher's side
  std::vector<double> side1;  ///< per-cycle coverage %, far side
  bool healed = false;        ///< both sides reached 100%
  /// Cycles from the heal until full coverage (0 when never healed).
  std::uint64_t healCycles = 0;
  std::uint64_t droppedByPartition = 0;
};

HealResult runCell(const bench::Scale& scale, Strategy strategy,
                   std::uint64_t cellSeed, std::uint32_t splitCycles,
                   std::uint32_t healCapCycles) {
  const std::uint32_t warmup = analysis::Scenario::Config{}.warmupCycles;
  auto scenario = analysis::Scenario::builder()
                      .nodes(scale.nodes)
                      .seed(cellSeed)
                      .timing(scale.timing)
                      .partitionRingSplit(2, warmup, warmup + splitCycles)
                      .build();
  const auto& schedule = *scenario.networkModel()->partitions();
  auto& live = scenario.liveSession(
      {.strategy = strategy,
       .fanout = 3,
       .seed = deriveStreamSeed(cellSeed, 0x5e55, 1),
       .settleCycles = 0});

  // One cycle into the blackout, then publish from side 0, so the
  // origin's own sends already resolve inside the split.
  scenario.runCycles(1);
  live.publish(schedule.members(0).front());
  const std::uint64_t dataId = live.lastDataId();

  auto coverage = [&](std::uint32_t group) {
    std::uint64_t total = 0;
    std::uint64_t have = 0;
    for (const NodeId id : scenario.network().aliveIds()) {
      if (schedule.groupOf(id) != group) continue;
      ++total;
      if (live.live().hasDelivered(dataId, id)) ++have;
    }
    return total == 0 ? 0.0 : 100.0 * have / total;
  };

  HealResult result;
  for (std::uint32_t c = 1; c < splitCycles + healCapCycles; ++c) {
    scenario.runCycles(1);
    result.side0.push_back(coverage(0));
    result.side1.push_back(coverage(1));
    if (!result.healed && result.side0.back() == 100.0 &&
        result.side1.back() == 100.0) {
      result.healed = true;
      // Sample c is taken after engine cycle warmup+1+c and the last
      // blackout cycle is warmup+splitCycles, so the earliest sample
      // where side 1 can read 100% is c == splitCycles (cross traffic
      // is vetoed before that): healCycles >= 1 counts cycles since
      // the heal, and the guard only shields the unsigned arithmetic.
      result.healCycles = c >= splitCycles ? c - splitCycles + 1 : 1;
    }
  }
  result.droppedByPartition =
      scenario.networkModel()->droppedByPartition();
  return result;
}

int run(const bench::Scale& scale, std::uint32_t splitCycles,
        std::uint32_t healCapCycles) {
  bench::printHeader(
      "Partition heal: per-side coverage through a ring split "
      "(beyond-paper stress)",
      "each half's d-link chain completes its own side during the "
      "blackout; after healing only pull recovery (§8) backfills the "
      "dark side — push-only strategies never retransmit",
      scale);
  bench::JsonReport report("partition_heal", scale);
  report.setParam("split_cycles", splitCycles);
  report.setParam("heal_cap_cycles", healCapCycles);

  const std::vector<Strategy> strategies{
      Strategy::kRandCast, Strategy::kRingCast, Strategy::kPushPull};
  auto sweep = bench::makeSweep(scale);
  std::vector<HealResult> results(strategies.size());
  sweep.pool().parallelFor(strategies.size(), [&](std::size_t i) {
    results[i] = runCell(scale, strategies[i],
                         deriveStreamSeed(scale.seed, 0x5917, i),
                         splitCycles, healCapCycles);
  });

  Table table({"strategy", "side0 @split-end", "side1 @split-end",
               "side1 final", "healed", "cycles to heal",
               "partition drops"});
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const HealResult& r = results[i];
    // Sample c (0-based) is taken after engine cycle warmup+2+c; the
    // last blackout cycle is warmup+splitCycles, i.e. sample
    // splitCycles-2.
    const std::size_t splitEnd = splitCycles >= 2 ? splitCycles - 2 : 0;
    table.addRow({std::string(strategyName(strategies[i])),
                  fmt(r.side0[splitEnd], 1), fmt(r.side1[splitEnd], 1),
                  fmt(r.side1.back(), 1), r.healed ? "yes" : "NO",
                  r.healed ? std::to_string(r.healCycles) : "-",
                  std::to_string(r.droppedByPartition)});

    Json cycles = Json::array();
    Json side0 = Json::array();
    Json side1 = Json::array();
    for (std::size_t c = 0; c < r.side0.size(); ++c) {
      cycles.push(c + 1);
      side0.push(r.side0[c]);
      side1.push(r.side1[c]);
    }
    report.addSeries(
        Json::object()
            .set("label", std::string("heal:") +
                              std::string(strategyName(strategies[i])))
            .set("kind", "partition_heal")
            .set("strategy", std::string(strategyName(strategies[i])))
            .set("split_cycles", splitCycles)
            .set("cycle", std::move(cycles))
            .set("side0_pct", std::move(side0))
            .set("side1_pct", std::move(side1))
            .set("healed", r.healed)
            .set("heal_cycles", r.healCycles)
            .set("dropped_by_partition", r.droppedByPartition));
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  std::printf(
      "\nthe split halves stay internally complete (RingCast side0 = 100%% "
      "while RandCast leaves stragglers even on its own side); after the "
      "heal, PushPull's anti-entropy closes the dark side in a bounded "
      "number of cycles.\n");
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Per-side coverage through a ring partition that heals "
      "(sim/network_model PartitionSchedule, live path).");
  parser.option("split-cycles",
                "blackout length in cycles after warm-up (default 25)")
      .option("heal-cycles",
              "post-heal observation window in cycles (default 60)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/600,
                                         /*quickRuns=*/1);
  return run(scale, argOrExit([&] {
               return args->getPositiveUint32("split-cycles", 25);
             }),
             argOrExit([&] {
               return args->getPositiveUint32("heal-cycles", 60);
             }));
}
