// Simulated reference curve for the real-socket runtime harness.
//
// scripts/run_local_cluster.py launches N vs07_node processes on
// localhost, publishes through RingCast, and collects each node's
// first-delivery hop over the control socket. This bench produces the
// curve those measurements are validated against: the same population
// (shared populationSeed), same strategy and fanout, run in-process
// under the lossyWan preset (latency clusters + per-link loss + light
// reordering under jittered timers — the adversarial stand-in for a
// real network). The metric is cumulative coverage per push round:
//
//   coverage[h] = avg over runs of (nodes first notified at hop <= h)
//                 / alive * 100
//
// which is exactly what the harness computes from the per-node hop
// reports, so the two curves are directly comparable (the harness
// asserts per-round agreement within a tolerance).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "cast/strategy.hpp"
#include "common/table.hpp"

namespace {

using namespace vs07;

/// Averaged cumulative coverage per push hop; index 0 = the origin.
std::vector<double> coverageCurve(cast::LiveSession& live,
                                  std::uint32_t runs,
                                  double* completePercent,
                                  double* avgLastHop) {
  std::vector<double> sum;       // per-hop cumulative coverage, summed
  std::vector<std::uint32_t> n;  // runs contributing at this hop
  std::uint32_t complete = 0;
  double lastHops = 0.0;
  for (std::uint32_t run = 0; run < runs; ++run) {
    const auto report = live.publishFromRandom();
    complete += report.complete() ? 1 : 0;
    lastHops += report.lastHop;
    double cumulative = 0.0;
    if (report.newlyNotifiedPerHop.size() > sum.size()) {
      sum.resize(report.newlyNotifiedPerHop.size(), 0.0);
      n.resize(report.newlyNotifiedPerHop.size(), 0);
    }
    for (std::size_t h = 0; h < sum.size(); ++h) {
      if (h < report.newlyNotifiedPerHop.size())
        cumulative += 100.0 *
                      static_cast<double>(report.newlyNotifiedPerHop[h]) /
                      static_cast<double>(report.aliveTotal);
      // Runs whose wave ended earlier hold their final coverage: the
      // curve is cumulative, a finished wave stays where it stopped.
      sum[h] += cumulative;
      ++n[h];
    }
  }
  std::vector<double> curve(sum.size());
  for (std::size_t h = 0; h < sum.size(); ++h) curve[h] = sum[h] / n[h];
  *completePercent = 100.0 * complete / runs;
  *avgLastHop = lastHops / runs;
  return curve;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser parser = bench::makeParser(
      "RingCast coverage-vs-round reference under the lossyWan preset "
      "(the sim half of the real-socket cross-validation)");
  parser.option("loss", "per-link loss rate in percent (default 1.0)")
      .option("settle", "engine cycles run after each publish so the "
                        "latency-delayed wave completes (default 12)")
      .option("latency", "wan | uniform (default wan). 'uniform' keeps "
                         "the lossyWan loss under jittered timers but "
                         "replaces the latency clusters with a uniform "
                         "1-3 tick delay on every link — homogeneous "
                         "links with a little jitter, which is what a "
                         "loopback cluster actually is (OS scheduling "
                         "jitter occasionally lets a hop-3 copy beat a "
                         "hop-2 copy). The wan clusters are far more "
                         "asymmetric, so their hop curve reads much "
                         "slower than the dissemination tree it built");
  const auto parsed = parser.parseOrExit(argc, argv);
  if (!parsed) return 0;
  bench::Scale scale = bench::resolveScale(*parsed, /*quickNodes=*/16,
                                           /*quickRuns=*/8);
  // The lossyWan preset fixes the timing model; reflect it in the record
  // instead of the CLI default.
  scale.timing = sim::TimingConfig::jittered();
  scale.timingName = "jittered";
  const double lossPercent = parsed->getDouble("loss", 1.0);
  const auto settleCycles =
      static_cast<std::uint32_t>(parsed->getPositiveUint("settle", 12));

  static const std::vector<std::string> kLatencyChoices = {"wan", "uniform"};
  const bool wanLatency =
      parsed->getChoice("latency", kLatencyChoices, 0) == 0;

  std::printf(
      "realnet_coverage: %u nodes, %u runs, loss %.2f%%, latency %s, "
      "seed %llu\n",
      scale.nodes, scale.runs, lossPercent, wanLatency ? "wan" : "uniform",
      static_cast<unsigned long long>(scale.seed));

  auto scenario =
      wanLatency
          ? analysis::Scenario::lossyWan(lossPercent / 100.0, scale.nodes,
                                         scale.seed)
          // lossyWan minus the latency clusters (and the reordering that
          // only matters under asymmetric latency): same population,
          // timers, loss. The uniform 1-3 tick link models a loopback
          // cluster — homogeneous links whose only asymmetry is OS
          // scheduling jitter (which occasionally lets a longer-hop
          // copy arrive first, softening the mid-wave rounds) — and
          // keeps delivery on the engine queue, a breadth-first wave
          // with honest hop tags. (A latency-free build would use the
          // synchronous ImmediateTransport, whose depth-first recursion
          // floods the network through the origin's *first* fanout
          // target and mis-tags the rest as duplicates.)
          : analysis::Scenario::builder()
                .nodes(scale.nodes)
                .seed(scale.seed)
                .timing(sim::TimingConfig::jittered())
                .latency(sim::LatencyModel::uniform(1, 3))
                .linkLoss(lossPercent / 100.0)
                .build();
  auto& live = scenario.liveSession(
      {.strategy = cast::Strategy::kRingCast,
       .fanout = 3,
       .seed = deriveStreamSeed(scale.seed, 0x5EA1, 0),
       .settleCycles = settleCycles});

  double completePercent = 0.0;
  double avgLastHop = 0.0;
  const std::vector<double> curve =
      coverageCurve(live, scale.runs, &completePercent, &avgLastHop);

  Table table({"round", "coverage %"});
  Json rounds = Json::array();
  Json coverage = Json::array();
  for (std::size_t h = 0; h < curve.size(); ++h) {
    table.addRow({std::to_string(h), fmt(curve[h], 2)});
    rounds.push(static_cast<std::uint64_t>(h));
    coverage.push(curve[h]);
  }
  bench::printTable(table, scale.csv);
  std::printf("complete: %.1f%% of runs, avg last hop %.2f\n",
              completePercent, avgLastHop);

  bench::JsonReport report("realnet_coverage", scale);
  report.addSeries(Json::object()
                       .set("label", "ringcast coverage vs round (lossyWan)")
                       .set("kind", "coverage_ref")
                       .set("strategy", "ringcast")
                       .set("loss_percent", lossPercent)
                       .set("latency", wanLatency ? "wan" : "uniform")
                       .set("settle_cycles", settleCycles)
                       .set("complete_percent", completePercent)
                       .set("avg_last_hop", avgLastHop)
                       .set("round", std::move(rounds))
                       .set("coverage_percent", std::move(coverage)));
  report.write(scale);
  return 0;
}
