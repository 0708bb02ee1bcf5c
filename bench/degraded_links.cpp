// Link-level degradation sweep: every strategy under per-link loss and
// per-node egress bandwidth caps (sim/network_model).
//
// The paper's evaluation kills whole nodes; real deployments mostly
// suffer *link* trouble. Two axes, all five strategies:
//
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
//
// Each (strategy, condition) cell builds its own scenario seeded from
// the cell identity (deriveStreamSeed) and runs on the worker pool;
// cells merge in canonical order, so the tables and JSON series are
// bit-identical for any --threads value.
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

const std::vector<Strategy>& allStrategies() {
  static const std::vector<Strategy> kAll = {
      Strategy::kFlood, Strategy::kRandCast, Strategy::kRingCast,
      Strategy::kMultiRing, Strategy::kPushPull};
  return kAll;
}

struct CellResult {
  double avgMissPercent = 0.0;
  double completePercent = 0.0;
  double avgMessages = 0.0;
  double avgSpreadTicks = 0.0;
  std::uint64_t droppedByLoss = 0;
  std::uint64_t queuedSends = 0;
  std::uint64_t maxQueueDelay = 0;
};

/// Publishes scale.runs messages through one live session and averages.
CellResult runCell(const bench::Scale& scale, analysis::Scenario& scenario,
                   Strategy strategy, std::uint32_t fanout,
                   std::uint64_t sessionSeed, std::uint32_t settleCycles) {
  auto& live = scenario.liveSession({.strategy = strategy,
                                     .fanout = fanout,
                                     .seed = sessionSeed,
                                     .settleCycles = settleCycles});
  CellResult cell;
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
  const auto* model = scenario.networkModel();
  if (model != nullptr) {
    cell.droppedByLoss = model->droppedByLoss();
    cell.queuedSends = model->queuedSends();
    cell.maxQueueDelay = model->maxQueueDelay();
  }
  return cell;
}

void lossSweep(const bench::Scale& scale, analysis::ParallelSweep& sweep,
               std::uint32_t fanout, bench::JsonReport& report) {
  const std::vector<double> lossPercent{0.0, 0.5, 1.0, 2.0, 5.0};
  const auto& strategies = allStrategies();
  std::printf("--- per-link Bernoulli loss, miss%% over %u runs "
              "(F=%u, settle 6 cycles) ---\n",
              scale.runs, fanout);

  std::vector<CellResult> cells(strategies.size() * lossPercent.size());
  sweep.pool().parallelFor(cells.size(), [&](std::size_t i) {
    const Strategy strategy = strategies[i / lossPercent.size()];
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
    cells[i] = runCell(scale, scenario, strategy, fanout,
                       deriveStreamSeed(cellSeed, 0x5e55, 1),
                       /*settleCycles=*/6);
  });

  std::vector<std::string> header{"strategy"};
  for (const double loss : lossPercent)
    header.push_back("loss " + fmt(loss, 1) + "%");
  Table table(header);
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    std::vector<std::string> row{std::string(strategyName(strategies[s]))};
    Json losses = Json::array();
    Json misses = Json::array();
    Json completes = Json::array();
    Json messages = Json::array();
    for (std::size_t l = 0; l < lossPercent.size(); ++l) {
      const CellResult& cell = cells[s * lossPercent.size() + l];
      row.push_back(fmtLog(cell.avgMissPercent));
      losses.push(lossPercent[l]);
      misses.push(cell.avgMissPercent);
      completes.push(cell.completePercent);
      messages.push(cell.avgMessages);
    }
    table.addRow(std::move(row));
    report.addSeries(Json::object()
                         .set("label", std::string("loss:") +
                                           std::string(strategyName(
                                               strategies[s])))
                         .set("kind", "loss_sweep")
                         .set("strategy",
                              std::string(strategyName(strategies[s])))
                         .set("fanout", fanout)
                         .set("loss_percent", std::move(losses))
                         .set("avg_miss_percent", std::move(misses))
                         .set("complete_percent", std::move(completes))
                         .set("avg_messages", std::move(messages)));
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
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
  const auto& strategies = allStrategies();
  const sim::TimingConfig timing =
      sim::TimingConfig::jitteredLatency(sim::LatencyModel::fixed(1));
  std::printf("--- egress bandwidth cap (messages/node/tick), wave spread "
              "in ticks | miss%% (settle 12 cycles) ---\n");

  std::vector<CellResult> cells(strategies.size() * egress.size());
  sweep.pool().parallelFor(cells.size(), [&](std::size_t i) {
    const Strategy strategy = strategies[i / egress.size()];
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
    cells[i] = runCell(scale, scenario, strategy, fanout,
                       deriveStreamSeed(cellSeed, 0x5e55, 1),
                       /*settleCycles=*/12);
  });

  std::vector<std::string> header{"strategy"};
  for (const std::uint32_t cap : egress)
    header.push_back(cap == 0 ? "unlimited" : "cap " + std::to_string(cap));
  Table table(header);
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    std::vector<std::string> row{std::string(strategyName(strategies[s]))};
    Json caps = Json::array();
    Json spreads = Json::array();
    Json misses = Json::array();
    Json queued = Json::array();
    for (std::size_t e = 0; e < egress.size(); ++e) {
      const CellResult& cell = cells[s * egress.size() + e];
      row.push_back(fmt(cell.avgSpreadTicks, 1) + " | " +
                    fmtLog(cell.avgMissPercent));
      caps.push(egress[e]);
      spreads.push(cell.avgSpreadTicks);
      misses.push(cell.avgMissPercent);
      queued.push(cell.queuedSends);
    }
    table.addRow(std::move(row));
    report.addSeries(Json::object()
                         .set("label", std::string("bandwidth:") +
                                           std::string(strategyName(
                                               strategies[s])))
                         .set("kind", "bandwidth_sweep")
                         .set("strategy",
                              std::string(strategyName(strategies[s])))
                         .set("fanout", fanout)
                         .set("egress_messages_per_tick", std::move(caps))
                         .set("avg_spread_ticks", std::move(spreads))
                         .set("avg_miss_percent", std::move(misses))
                         .set("queued_sends", std::move(queued))
                         // This axis runs under its own timing model
                         // (jittered + fixed 1-tick links), not --timing.
                         .set("timing", bench::JsonReport::timingJson(timing)));
  }
  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  std::printf(
      "\ntighter pipes stretch every wave; flooding pays the steepest "
      "queueing price, fanout-bounded strategies degrade gracefully.\n");
}

int run(const bench::Scale& scale, std::uint32_t fanout) {
  bench::printHeader(
      "Degraded links: loss and bandwidth sweeps (beyond-paper stress)",
      "per-link loss: RINGCAST's redundant d-link paths deliver where "
      "pure RANDCAST misses; egress caps: overload becomes queueing "
      "delay, not silent capacity",
      scale);
  bench::JsonReport report("degraded_links", scale);
  report.setParam("fanout", fanout);
  auto sweep = bench::makeSweep(scale);
  lossSweep(scale, sweep, fanout, report);
  bandwidthSweep(scale, sweep, fanout, report);
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Per-link loss and egress-bandwidth sweeps over all five "
      "dissemination strategies (live path, sim/network_model).");
  parser.option("fanout", "push fanout F for every strategy (default 3)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/600,
                                         /*quickRuns=*/10);
  return run(scale, argOrExit([&] {
               return args->getPositiveUint32("fanout", 3);
             }));
}
