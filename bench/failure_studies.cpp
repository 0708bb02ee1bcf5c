// Stress studies beyond the paper's random-failure model, one table row
// per scenario:
//
//   failure_studies --scenario adversarial|degraded_links|partition_heal
//                   [--quick | --paper] [--threads T] [--json F]
//
// * adversarial, two stresses:
//   1. Failure *placement*: one contiguous ring arc vs the same number of
//      scattered random failures. The counter-intuitive result (which
//      the §5.1 partition discussion predicts once you see it): a
//      localized outage leaves the survivors' d-links path-connected —
//      the ring minus one arc is a chain, and RINGCAST completes over it
//      even at F = 2. Scattered failures are the *hard* case: they cut
//      the ring into many partitions whose bridging falls entirely to
//      the r-links. RANDCAST is indifferent to placement (it has no
//      structure to destroy).
//   2. Heavy-tailed (Pareto) session churn vs the paper's geometric
//      model at matched mean lifetime. Real traces (Saroiu et al.) are
//      heavy-tailed: most sessions are short, so deaths concentrate on
//      nodes whose ring integration just finished, and the ring carries
//      more stale links at the same average turnover.
// * degraded_links: every strategy under per-link loss and per-node
//   egress bandwidth caps (sim/network_model). The paper's evaluation
//   kills whole nodes; real deployments mostly suffer *link* trouble.
//   1. Per-link Bernoulli loss. The paper's §5 claim in link terms: the
//      ring's two deterministic d-links give every node redundant
//      delivery paths, so RINGCAST rides out loss rates at which a
//      purely probabilistic strategy (RANDCAST at the same fanout)
//      leaves nodes unserved — and pull recovery (§8 PUSHPULL) repairs
//      whatever loss still breaks through.
//   2. Egress bandwidth caps with FIFO queueing: overload turns into
//      *delay* (wave stretch in ticks), not silent infinite capacity.
//      Flooding pays the steepest queueing price — exactly why fanout
//      dissemination exists.
// * partition_heal: per-side coverage of a message published *during* a
//   network split, and recovery time after the split heals
//   (sim/network_model's PartitionSchedule on the live path). The ring
//   is split into two seq-contiguous halves right after warm-up; while
//   the blackout lasts, all cross-half traffic — gossip and
//   dissemination alike — is dropped. A message published on side 0
//   then shows the §5.1 story live:
//     - the publisher's side completes (the d-link chain of each half
//       stays connected — a ring split into arcs is still a chain per
//       side, so RINGCAST covers its own side deterministically);
//     - the far side stays dark for the whole split: no strategy
//       crosses a blackout;
//     - after healing, only the pull layer (§8 PUSHPULL) recovers: one
//       anti-entropy pull across the former boundary re-pushes the
//       message through the healed side, reaching 100% within a bounded
//       number of cycles. Push-only strategies never retransmit — their
//       far side stays at 0% forever, which is precisely why the paper
//       calls pull "expected to significantly improve reliability".
//
// In degraded_links and partition_heal, each (strategy, condition) cell
// builds its own scenario seeded from the cell identity
// (deriveStreamSeed) and runs on the worker pool; cells merge in
// canonical order, so the tables and JSON series are bit-identical for
// any --threads value. The JSON record's "bench" name is the scenario's
// own (adversarial_failures, degraded_links, partition_heal).
#include <array>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "cast/strategy.hpp"
#include "common/table.hpp"
#include "sim/session_churn.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

/// The study-specific flags, read only by the scenarios that list them.
struct Knobs {
  double meanLifetime = 0.0;      ///< --mean-lifetime (adversarial)
  std::uint32_t fanout = 0;       ///< --fanout (degraded_links)
  std::uint32_t splitCycles = 0;  ///< --split-cycles (partition_heal)
  std::uint32_t healCycles = 0;   ///< --heal-cycles (partition_heal)
};

using ScenarioFn = void (*)(const bench::Scale&, const Knobs&,
                            analysis::ParallelSweep&, bench::JsonReport&);

// -- adversarial: arc vs scattered kills, Pareto vs geometric churn -------

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
  // RandCast baseline at F = 3: indifferent to *where* the dead sit on
  // the ring.
  std::vector<std::string> row{"RandCast", "3"};
  for (const bool arc : {false, true}) {
    auto scenario = analysis::Scenario::paperStatic(
        scale.nodes, scale.seed + 55, scale.timing);
    if (arc)
      scenario.killContiguousArc(0.10);
    else
      scenario.killRandomFraction(0.10);
    const auto point = sweep.measureEffectiveness(
        scenario, Strategy::kRandCast, 3, scale.runs, scale.seed + 55 + 7);
    row.push_back(fmtLog(point.avgMissPercent));
  }
  table.addRow(std::move(row));
  bench::printTable(table, scale.csv);
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
  bench::printTable(table, scale.csv);
  report.addSeries(bench::tableSeries("churn_models", table));
  std::printf(
      "\nheavy-tailed sessions leave the ring with more stale links at the "
      "same average turnover: deaths concentrate on recently-integrated "
      "nodes, and misses spread beyond fresh joiners (lower young share).\n");
}

void adversarial(const bench::Scale& scale, const Knobs& knobs,
                 analysis::ParallelSweep& sweep, bench::JsonReport& report) {
  report.setParam("mean_lifetime", knobs.meanLifetime);
  arcVsRandom(scale, sweep, report);
  churnModels(scale, knobs.meanLifetime, sweep, report);
}

// -- degraded_links: per-link loss and egress caps ------------------------

constexpr Strategy kAllStrategies[] = {Strategy::kFlood, Strategy::kRandCast,
                                       Strategy::kRingCast,
                                       Strategy::kMultiRing,
                                       Strategy::kPushPull};
constexpr std::size_t kStrategyCount = std::size(kAllStrategies);

struct LinkCell {
  double avgMissPercent = 0.0;
  double completePercent = 0.0;
  double avgMessages = 0.0;
  double avgSpreadTicks = 0.0;
  std::uint64_t queuedSends = 0;
};

/// Publishes scale.runs messages through one live session and averages.
LinkCell runLinkCell(const bench::Scale& scale, analysis::Scenario& scenario,
                     Strategy strategy, std::uint32_t fanout,
                     std::uint64_t sessionSeed, std::uint32_t settleCycles) {
  auto& live = scenario.liveSession({.strategy = strategy,
                                     .fanout = fanout,
                                     .seed = sessionSeed,
                                     .settleCycles = settleCycles});
  LinkCell cell;
  std::uint32_t complete = 0;
  for (std::uint32_t run = 0; run < scale.runs; ++run) {
    const auto report = live.publishFromRandom();
    cell.avgMissPercent += report.missRatioPercent();
    cell.avgMessages += static_cast<double>(report.messagesTotal);
    cell.avgSpreadTicks += static_cast<double>(
        live.live().stats(live.lastDataId()).spreadTicks());
    complete += report.complete() ? 1 : 0;
  }
  cell.avgMissPercent /= scale.runs;
  cell.avgMessages /= scale.runs;
  cell.avgSpreadTicks /= scale.runs;
  cell.completePercent = 100.0 * complete / scale.runs;
  if (const auto* model = scenario.networkModel())
    cell.queuedSends = model->queuedSends();
  return cell;
}

void lossSweep(const bench::Scale& scale, analysis::ParallelSweep& sweep,
               std::uint32_t fanout, bench::JsonReport& report) {
  const std::vector<double> lossPercent{0.0, 0.5, 1.0, 2.0, 5.0};
  std::printf("--- per-link Bernoulli loss, miss%% over %u runs "
              "(F=%u, settle 6 cycles) ---\n",
              scale.runs, fanout);

  std::vector<LinkCell> cells(kStrategyCount * lossPercent.size());
  sweep.pool().parallelFor(cells.size(), [&](std::size_t i) {
    const Strategy strategy = kAllStrategies[i / lossPercent.size()];
    const double loss = lossPercent[i % lossPercent.size()] / 100.0;
    const std::uint64_t cellSeed = deriveStreamSeed(scale.seed, 0x1055, i);
    // Links degrade only after the clean warm-up (the §7 methodology):
    // sustained loss *during* self-organisation starves CYCLON views —
    // a different failure mode than the dissemination robustness under
    // test here.
    auto scenario = analysis::Scenario::builder()
                        .nodes(scale.nodes)
                        .seed(cellSeed)
                        .timing(scale.timing)
                        .linkLoss(loss)
                        .conditionsFromCycle(
                            analysis::Scenario::Config{}.warmupCycles)
                        .build();
    cells[i] = runLinkCell(scale, scenario, strategy, fanout,
                           deriveStreamSeed(cellSeed, 0x5e55, 1),
                           /*settleCycles=*/6);
  });

  std::vector<std::string> header{"strategy"};
  for (const double loss : lossPercent)
    header.push_back("loss " + fmt(loss, 1) + "%");
  Table table(header);
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    const std::string name{strategyName(kAllStrategies[s])};
    std::vector<std::string> row{name};
    Json losses = Json::array();
    Json misses = Json::array();
    Json completes = Json::array();
    Json messages = Json::array();
    for (std::size_t l = 0; l < lossPercent.size(); ++l) {
      const LinkCell& cell = cells[s * lossPercent.size() + l];
      row.push_back(fmtLog(cell.avgMissPercent));
      losses.push(lossPercent[l]);
      misses.push(cell.avgMissPercent);
      completes.push(cell.completePercent);
      messages.push(cell.avgMessages);
    }
    table.addRow(std::move(row));
    report.addSeries(Json::object()
                         .set("label", "loss:" + name)
                         .set("kind", "loss_sweep")
                         .set("strategy", name)
                         .set("fanout", fanout)
                         .set("loss_percent", std::move(losses))
                         .set("avg_miss_percent", std::move(misses))
                         .set("complete_percent", std::move(completes))
                         .set("avg_messages", std::move(messages)));
  }
  bench::printTable(table, scale.csv);
  std::printf(
      "\nd-link redundancy + pull recovery hold the deterministic "
      "strategies at (or near) zero miss while RandCast's misses grow "
      "with the loss rate.\n\n");
}

void bandwidthSweep(const bench::Scale& scale, analysis::ParallelSweep& sweep,
                    std::uint32_t fanout, bench::JsonReport& report) {
  // 0 = unlimited; the capped pipes force FIFO queueing. The axis runs
  // under jittered timers + fixed 1-tick links regardless of --timing:
  // queueing delay needs a clock that in-flight messages live on.
  const std::vector<std::uint32_t> egress{0, 8, 4, 2};
  const sim::TimingConfig timing =
      sim::TimingConfig::jitteredLatency(sim::LatencyModel::fixed(1));
  std::printf("--- egress bandwidth cap (messages/node/tick), wave spread "
              "in ticks | miss%% (settle 12 cycles) ---\n");

  std::vector<LinkCell> cells(kStrategyCount * egress.size());
  sweep.pool().parallelFor(cells.size(), [&](std::size_t i) {
    const Strategy strategy = kAllStrategies[i / egress.size()];
    const std::uint32_t cap = egress[i % egress.size()];
    const std::uint64_t cellSeed = deriveStreamSeed(scale.seed, 0xba2d, i);
    auto builder = analysis::Scenario::builder()
                       .nodes(scale.nodes)
                       .seed(cellSeed)
                       .timing(timing)
                       .conditionsFromCycle(
                            analysis::Scenario::Config{}.warmupCycles);
    if (cap > 0) builder.egressCap(cap);
    auto scenario = builder.build();
    cells[i] = runLinkCell(scale, scenario, strategy, fanout,
                           deriveStreamSeed(cellSeed, 0x5e55, 1),
                           /*settleCycles=*/12);
  });

  std::vector<std::string> header{"strategy"};
  for (const std::uint32_t cap : egress)
    header.push_back(cap == 0 ? "unlimited" : "cap " + std::to_string(cap));
  Table table(header);
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    const std::string name{strategyName(kAllStrategies[s])};
    std::vector<std::string> row{name};
    Json caps = Json::array();
    Json spreads = Json::array();
    Json misses = Json::array();
    Json queued = Json::array();
    for (std::size_t e = 0; e < egress.size(); ++e) {
      const LinkCell& cell = cells[s * egress.size() + e];
      row.push_back(fmt(cell.avgSpreadTicks, 1) + " | " +
                    fmtLog(cell.avgMissPercent));
      caps.push(egress[e]);
      spreads.push(cell.avgSpreadTicks);
      misses.push(cell.avgMissPercent);
      queued.push(cell.queuedSends);
    }
    table.addRow(std::move(row));
    report.addSeries(Json::object()
                         .set("label", "bandwidth:" + name)
                         .set("kind", "bandwidth_sweep")
                         .set("strategy", name)
                         .set("fanout", fanout)
                         .set("egress_messages_per_tick", std::move(caps))
                         .set("avg_spread_ticks", std::move(spreads))
                         .set("avg_miss_percent", std::move(misses))
                         .set("queued_sends", std::move(queued))
                         // This axis runs under its own timing model
                         // (jittered + fixed 1-tick links), not --timing.
                         .set("timing", bench::JsonReport::timingJson(timing)));
  }
  bench::printTable(table, scale.csv);
  std::printf(
      "\ntighter pipes stretch every wave; flooding pays the steepest "
      "queueing price, fanout-bounded strategies degrade gracefully.\n");
}

void degradedLinks(const bench::Scale& scale, const Knobs& knobs,
                   analysis::ParallelSweep& sweep,
                   bench::JsonReport& report) {
  report.setParam("fanout", knobs.fanout);
  lossSweep(scale, sweep, knobs.fanout, report);
  bandwidthSweep(scale, sweep, knobs.fanout, report);
}

// -- partition_heal: per-side coverage through a ring split ---------------

struct HealResult {
  std::vector<double> side0;  ///< per-cycle coverage %, publisher's side
  std::vector<double> side1;  ///< per-cycle coverage %, far side
  bool healed = false;        ///< both sides reached 100%
  /// Cycles from the heal until full coverage (0 when never healed).
  std::uint64_t healCycles = 0;
  std::uint64_t droppedByPartition = 0;
};

HealResult runHealCell(const bench::Scale& scale, Strategy strategy,
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

void partitionHeal(const bench::Scale& scale, const Knobs& knobs,
                   analysis::ParallelSweep& sweep,
                   bench::JsonReport& report) {
  const std::uint32_t splitCycles = knobs.splitCycles;
  report.setParam("split_cycles", splitCycles);
  report.setParam("heal_cap_cycles", knobs.healCycles);

  const std::vector<Strategy> strategies{
      Strategy::kRandCast, Strategy::kRingCast, Strategy::kPushPull};
  std::vector<HealResult> results(strategies.size());
  sweep.pool().parallelFor(strategies.size(), [&](std::size_t i) {
    results[i] = runHealCell(scale, strategies[i],
                             deriveStreamSeed(scale.seed, 0x5917, i),
                             splitCycles, knobs.healCycles);
  });

  Table table({"strategy", "side0 @split-end", "side1 @split-end",
               "side1 final", "healed", "cycles to heal",
               "partition drops"});
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const HealResult& r = results[i];
    const std::string name{strategyName(strategies[i])};
    // Sample c (0-based) is taken after engine cycle warmup+2+c; the
    // last blackout cycle is warmup+splitCycles, i.e. sample
    // splitCycles-2.
    const std::size_t splitEnd = splitCycles >= 2 ? splitCycles - 2 : 0;
    table.addRow({name, fmt(r.side0[splitEnd], 1), fmt(r.side1[splitEnd], 1),
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
    report.addSeries(Json::object()
                         .set("label", "heal:" + name)
                         .set("kind", "partition_heal")
                         .set("strategy", name)
                         .set("split_cycles", splitCycles)
                         .set("cycle", std::move(cycles))
                         .set("side0_pct", std::move(side0))
                         .set("side1_pct", std::move(side1))
                         .set("healed", r.healed)
                         .set("heal_cycles", r.healCycles)
                         .set("dropped_by_partition", r.droppedByPartition));
  }
  bench::printTable(table, scale.csv);
  std::printf(
      "\nthe split halves stay internally complete (RingCast side0 = 100%% "
      "while RandCast leaves stragglers even on its own side); after the "
      "heal, PushPull's anti-entropy closes the dark side in a bounded "
      "number of cycles.\n");
}

// -- the scenario table and the command line ------------------------------

struct Study {
  const char* name;   ///< the --scenario value
  const char* bench;  ///< the JSON record's "bench" name
  const char* title;
  const char* paperNote;
  std::uint32_t quickNodes;
  std::uint32_t quickRuns;
  std::vector<std::string> flags;  ///< scenario-specific flags it reads
  ScenarioFn run;
};

const Study kStudies[] = {
    {"adversarial", "adversarial_failures",
     "Failure placement and realistic churn (beyond-paper stress)",
     "a localized arc outage leaves the ring path-connected (RingCast "
     "completes even at F=2); scattered failures are the hard case; "
     "heavy-tailed churn degrades the ring more than geometric churn at "
     "equal mean lifetime",
     1'000, 25, {"mean-lifetime"}, adversarial},
    {"degraded_links", "degraded_links",
     "Degraded links: loss and bandwidth sweeps (beyond-paper stress)",
     "per-link loss: RINGCAST's redundant d-link paths deliver where "
     "pure RANDCAST misses; egress caps: overload becomes queueing "
     "delay, not silent capacity",
     600, 10, {"fanout"}, degradedLinks},
    {"partition_heal", "partition_heal",
     "Partition heal: per-side coverage through a ring split "
     "(beyond-paper stress)",
     "each half's d-link chain completes its own side during the "
     "blackout; after healing only pull recovery (§8) backfills the "
     "dark side — push-only strategies never retransmit",
     600, 1, {"split-cycles", "heal-cycles"}, partitionHeal},
};

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(bench::studiesDescription(
      "Stress studies beyond the paper's random-failure model; "
      "--scenario NAME runs one of them:",
      kStudies));
  parser.option("scenario", "the study to run: adversarial | "
                            "degraded_links | partition_heal (required)")
      .option("mean-lifetime",
              "mean session length in cycles for the churn comparison "
              "(adversarial; default 500 = the paper's 0.2%/cycle "
              "intensity)")
      .option("fanout",
              "push fanout F for every strategy (degraded_links; "
              "default 3)")
      .option("split-cycles",
              "blackout length in cycles after warm-up (partition_heal; "
              "default 25)")
      .option("heal-cycles",
              "post-heal observation window in cycles (partition_heal; "
              "default 60)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const Study& study = bench::rowOrExit(*args, "scenario", kStudies);
  const auto scale =
      bench::resolveScale(*args, study.quickNodes, study.quickRuns);
  Knobs knobs;
  if (bench::reads(study, "mean-lifetime"))
    knobs.meanLifetime =
        argOrExit([&] { return args->getDouble("mean-lifetime", 500.0); });
  if (bench::reads(study, "fanout"))
    knobs.fanout =
        argOrExit([&] { return args->getPositiveUint32("fanout", 3); });
  if (bench::reads(study, "split-cycles")) {
    knobs.splitCycles =
        argOrExit([&] { return args->getPositiveUint32("split-cycles", 25); });
    knobs.healCycles =
        argOrExit([&] { return args->getPositiveUint32("heal-cycles", 60); });
  }

  bench::printHeader(study.title, study.paperNote, scale);
  bench::JsonReport report(study.bench, scale);
  auto sweep = bench::makeSweep(scale);
  study.run(scale, knobs, sweep, report);
  report.write(scale);
  return 0;
}
