// Regenerates the evaluation figures of §7 — Figs. 6 to 13 — one table
// row per figure:
//
//   paper_figures --figure N [--quick | --paper] [--threads T] [--json F]
//
// Three family runners do the work:
//   * effectiveness over the 1..20 fanout axis (Figs. 6, 8, 9, 11): miss
//     ratio and complete-dissemination share, or, for Fig. 8, the
//     message-overhead split of the very same sweep;
//   * per-hop progress at fanouts 2, 3, 5 and 10 (Figs. 7, 10);
//   * independent churn experiments run across the pool (Figs. 12, 13).
//
// Every figure defaults to the paper's full scale (10k nodes, 100 runs
// per point); --quick drops to the figure's smoke scale. The JSON
// record's "bench" name is the figure's own (fig06_static_effectiveness,
// ...), so records compare across versions.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "analysis/parallel_sweep.hpp"
#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "common/histogram.hpp"
#include "common/table.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

/// What a figure measures and how it prints it.
enum class Kind {
  kMissAndComplete,  ///< effectiveness sweep: miss% and complete% table
  kOverhead,         ///< the same sweep: virgin vs redundant messages
  kProgressRanges,   ///< per-hop progress: mean and min..max columns
  kProgress,         ///< per-hop progress: mean columns only
  kLifetimes,        ///< lifetimes of every alive node after churn
  kMissLifetimes,    ///< lifetimes of the nodes disseminations missed
};

/// The overlays a figure measures on.
enum class Overlays {
  kStatic,           ///< one warmed-up failure-free network
  kFailureVolumes,   ///< a fresh network per failure volume, 1/2/5/10% dead
  kFivePercentDead,  ///< one network with 5% of the nodes killed at once
  kChurned,          ///< one network churned to full turnover (--churn)
  kChurnedNetworks,  ///< --experiments independent churned networks
};

struct Figure {
  const char* name;   ///< the --figure value: "6" .. "13"
  const char* bench;  ///< the JSON record's "bench" name
  const char* title;
  const char* paperNote;
  std::uint32_t quickNodes;
  std::uint32_t quickRuns;
  Kind kind;
  Overlays overlays;
  std::vector<std::string> flags;  ///< figure-specific flags it reads
};

const Figure kFigures[] = {
    // Fig. 6 — (a) miss ratio (log scale in the paper) and (b) the share
    // of runs achieving complete dissemination, static failure-free
    // network. Expected (10k nodes, 100 runs/fanout): RANDCAST's miss
    // ratio decays ~exponentially with F (≈10% at F=2, <0.1% by F=6);
    // RINGCAST is exactly 0 for every F. RANDCAST complete
    // disseminations transit steeply from 0% (F<=5) to 100% (F>=11);
    // RINGCAST sits at 100% everywhere.
    {"6", "fig06_static_effectiveness",
     "Fig. 6: static failure-free effectiveness vs fanout",
     "RandCast miss ratio falls exponentially in F; RingCast misses "
     "nothing at any F; complete disseminations 0->100% around F=7..11 "
     "for RandCast, always 100% for RingCast",
     2'500, 25, Kind::kMissAndComplete, Overlays::kStatic, {}},
    // Fig. 7 — the percentage of nodes not yet reached after each hop
    // (log scale in the paper). Expected: the two protocols track each
    // other for the first hops (exponential spreading) and split once
    // ~80-90% of nodes are reached: RANDCAST flattens into a residue at
    // low F while RINGCAST drains to zero, reaching the last node in
    // fewer hops. Higher fanout compresses the whole curve.
    {"7", "fig07_static_progress",
     "Fig. 7: per-hop dissemination progress (static, failure-free)",
     "protocols track each other until ~80-90% coverage, then RingCast "
     "drains to 0 while RandCast leaves a residue at low F; higher F = "
     "fewer hops",
     2'500, 25, Kind::kProgressRanges, Overlays::kStatic, {}},
    // Fig. 8 — messages per dissemination, split into those reaching
    // "virgin" (not-yet-notified) nodes and redundant ones, from Fig. 6's
    // sweep. Expected (10k nodes): total ≈ F × N_hit, of which ≈ N_hit
    // are virgin and (F-1) × N_hit redundant. The two protocols' stacks
    // are practically identical except at low fanout, where RANDCAST does
    // not reach everyone (smaller N_hit).
    {"8", "fig08_message_overhead",
     "Fig. 8: message overhead split (virgin vs redundant) vs fanout",
     "total = F x N_hit; N_hit virgin + (F-1) x N_hit redundant; "
     "protocols identical except at low F where RandCast reaches fewer "
     "nodes",
     2'500, 25, Kind::kOverhead, Overlays::kStatic, {}},
    // Fig. 9 — effectiveness after catastrophic failures killing 1%, 2%,
    // 5% and 10% of the nodes at once, gossip stalled (no self-healing).
    // Expected: RINGCAST beats RANDCAST at every failure volume; the gap
    // narrows as the failure grows, but even at 10% dead RINGCAST's miss
    // ratio stays about an order of magnitude lower, and its
    // complete-dissemination share is far higher at small fanouts.
    {"9", "fig09_catastrophic_effectiveness",
     "Fig. 9: effectiveness after catastrophic failure (1/2/5/10% dead)",
     "RingCast keeps ~an order of magnitude lower miss ratio; gap "
     "narrows as the failure volume grows; no healing allowed",
     2'500, 20, Kind::kMissAndComplete, Overlays::kFailureVolumes, {}},
    // Fig. 10 — per-hop progress after a catastrophic failure killing 5%
    // of the nodes (no healing). Expected: same anatomy as Fig. 7
    // (exponential spreading, then the tail), shifted up by the damage:
    // RANDCAST's residue is larger, RINGCAST still drains almost
    // everything, and the fanout-latency relation is preserved.
    {"10", "fig10_catastrophic_progress",
     "Fig. 10: per-hop progress after a 5% catastrophic failure",
     "same shape as Fig. 7 with a larger RandCast residue; RingCast "
     "still reaches almost everyone and finishes in fewer hops",
     2'500, 25, Kind::kProgress, Overlays::kFivePercentDead, {}},
    // Fig. 11 — effectiveness under continuous churn (0.2% of the
    // population replaced per cycle by default; the rate Saroiu et al.
    // measured on Gnutella at a 10s gossip period). Expected: RINGCAST's
    // miss ratio is lower than RANDCAST's for small fanouts (2..5) and
    // slightly *worse* for F >= 6 (its misses concentrate on fresh
    // joiners, see Fig. 13); neither protocol achieves complete
    // disseminations except at extreme fanouts.
    {"11", "fig11_churn_effectiveness",
     "Fig. 11: effectiveness vs fanout under continuous churn",
     "RingCast better at F=2..5, slightly worse at F>=6 (misses are "
     "concentrated on fresh joiners); almost no complete disseminations",
     800, 25, Kind::kMissAndComplete, Overlays::kChurned, {"churn"}},
    // Fig. 12 — the distribution of node lifetimes at freeze time, summed
    // over independent churn experiments (log-log in the paper).
    // Expected (10k nodes, 0.2%/cycle): counts per lifetime are capped by
    // the churn batch size (20 nodes/cycle at paper scale) for young
    // lifetimes and fall off geometrically for old ones — a plateau
    // followed by an exponential-looking tail on log-log axes.
    {"12", "fig12_lifetime_distribution",
     "Fig. 12: distribution of node lifetimes under churn",
     "counts plateau at the per-cycle churn batch size for young nodes "
     "and decay geometrically for old ones (log-log)",
     800, 1, Kind::kLifetimes, Overlays::kChurnedNetworks,
     {"churn", "experiments"}},
    // Fig. 13 — lifetimes of the nodes NOT notified by disseminations
    // under churn, fanouts 3 and 6, both protocols (log-log in the
    // paper). Expected: misses concentrate on nodes younger than ~20-30
    // cycles. RINGCAST misses *more* of the very young nodes than
    // RANDCAST (it spends F-2 instead of F forwards on r-links, and
    // joiners have no incoming d-links yet) but almost none of the older
    // ones, where RANDCAST keeps missing at every age.
    {"13", "fig13_nonnotified_lifetimes",
     "Fig. 13: lifetimes of non-notified nodes under churn (F=3 and F=6)",
     "misses concentrate on nodes younger than ~20-30 cycles; RingCast "
     "misses more of the very young but nearly none of the old nodes; "
     "RandCast misses at every age",
     800, 50, Kind::kMissLifetimes, Overlays::kChurnedNetworks,
     {"churn", "experiments"}},
};

/// One overlay of a figure, with the seed its sweeps derive from.
struct Setting {
  analysis::Scenario scenario;
  std::uint64_t seed;
  std::string suffix;  ///< series-label suffix ("" or "_kill5%")
};

/// Builds a figure's overlays one at a time, prints each one's banner,
/// and hands it to `measure`.
void forEachSetting(Overlays overlays, const bench::Scale& scale,
                    double churnRate,
                    const std::function<void(const Setting&)>& measure) {
  switch (overlays) {
    case Overlays::kStatic:
      measure({bench::buildStatic(scale), scale.seed, ""});
      return;
    case Overlays::kFailureVolumes:
      for (const int killPercent : {1, 2, 5, 10}) {
        // Fresh overlay per failure volume, as in the paper's §7.2 setup.
        const std::uint64_t seed = scale.seed + killPercent * 10;
        const Setting setting{
            analysis::Scenario::paperCatastrophic(
                killPercent / 100.0, scale.nodes, seed, scale.timing),
            seed, "_kill" + std::to_string(killPercent) + "%"};
        std::printf("--- failed nodes: %d%% (alive: %u) ---\n", killPercent,
                    setting.scenario.network().aliveCount());
        measure(setting);
      }
      return;
    case Overlays::kFivePercentDead: {
      const Setting setting{analysis::Scenario::paperCatastrophic(
                                0.05, scale.nodes, scale.seed, scale.timing),
                            scale.seed, ""};
      std::printf("killed 5%%: %u nodes remain\n\n",
                  setting.scenario.network().aliveCount());
      measure(setting);
      return;
    }
    case Overlays::kChurned: {
      const Setting setting{bench::buildChurned(scale, churnRate, 0),
                            scale.seed, ""};
      std::printf("\n");
      measure(setting);
      return;
    }
    case Overlays::kChurnedNetworks:
      break;  // the churn-experiment family builds its own networks
  }
}

// -- effectiveness vs fanout (Figs. 6, 8, 9, 11) --------------------------

void printMissAndComplete(const std::vector<analysis::EffectivenessPoint>& rand,
                          const std::vector<analysis::EffectivenessPoint>& ring,
                          bool csv) {
  Table table({"fanout", "randcast_miss%", "ringcast_miss%",
               "randcast_complete%", "ringcast_complete%"});
  for (std::size_t i = 0; i < rand.size(); ++i)
    table.addRow({std::to_string(rand[i].fanout),
                  fmtLog(rand[i].avgMissPercent),
                  fmtLog(ring[i].avgMissPercent),
                  fmt(rand[i].completePercent, 1),
                  fmt(ring[i].completePercent, 1)});
  bench::printTable(table, csv);
  std::printf("\n");
}

void printOverhead(const char* name,
                   const std::vector<analysis::EffectivenessPoint>& points,
                   bool csv) {
  std::printf("--- %s: messages per dissemination (averaged) ---\n", name);
  Table table({"fanout", "total", "to_virgin", "to_notified", "virgin_share"});
  for (const auto& p : points) {
    const double share =
        p.avgMessagesTotal > 0 ? p.avgVirgin / p.avgMessagesTotal : 0.0;
    table.addRow({std::to_string(p.fanout), fmt(p.avgMessagesTotal, 0),
                  fmt(p.avgVirgin, 0), fmt(p.avgRedundant, 0),
                  fmt(share, 3)});
  }
  bench::printTable(table, csv);
  std::printf("\n");
}

void runEffectiveness(const Figure& figure, const bench::Scale& scale,
                      double churnRate, analysis::ParallelSweep& sweep,
                      bench::JsonReport& report) {
  const auto fanouts = bench::fullFanoutAxis();
  double sweepSeconds = 0.0;
  forEachSetting(figure.overlays, scale, churnRate, [&](const Setting& s) {
    bench::Stopwatch timer;
    const auto rand = sweep.sweepEffectiveness(
        s.scenario, Strategy::kRandCast, fanouts, scale.runs, s.seed + 1);
    const auto ring = sweep.sweepEffectiveness(
        s.scenario, Strategy::kRingCast, fanouts, scale.runs, s.seed + 2);
    sweepSeconds += timer.seconds();
    report.addSeries(bench::effectivenessSeries("randcast" + s.suffix, rand));
    report.addSeries(bench::effectivenessSeries("ringcast" + s.suffix, ring));
    if (figure.kind == Kind::kOverhead) {
      printOverhead("RANDCAST", rand, scale.csv);
      printOverhead("RINGCAST", ring, scale.csv);
    } else {
      printMissAndComplete(rand, ring, scale.csv);
    }
  });
  std::printf("sweep: %zu fanouts x %u runs x 2 protocols in %.2fs\n",
              fanouts.size(), scale.runs, sweepSeconds);
}

// -- per-hop progress (Figs. 7, 10) ---------------------------------------

void runProgress(const Figure& figure, const bench::Scale& scale,
                 analysis::ParallelSweep& sweep, bench::JsonReport& report) {
  const bool ranges = figure.kind == Kind::kProgressRanges;
  forEachSetting(figure.overlays, scale, 0.0, [&](const Setting& s) {
    for (const std::uint32_t fanout : {2u, 3u, 5u, 10u}) {
      const auto rand = sweep.measureProgress(
          s.scenario, Strategy::kRandCast, fanout, scale.runs,
          s.seed + fanout);
      const auto ring = sweep.measureProgress(
          s.scenario, Strategy::kRingCast, fanout, scale.runs,
          s.seed + 100 + fanout);
      const std::string label = "_f" + std::to_string(fanout) + s.suffix;
      report.addSeries(bench::progressSeries("randcast" + label, rand));
      report.addSeries(bench::progressSeries("ringcast" + label, ring));

      std::printf(
          "--- fanout %u: %% nodes not reached yet after each hop ---\n",
          fanout);
      Table table(ranges ? std::vector<std::string>{"hop", "randcast_mean%",
                                                    "randcast_range",
                                                    "ringcast_mean%",
                                                    "ringcast_range"}
                         : std::vector<std::string>{"hop", "randcast_mean%",
                                                    "ringcast_mean%"});
      const std::size_t hops =
          std::max(rand.meanPctRemaining.size(), ring.meanPctRemaining.size());
      for (std::size_t hop = 0; hop < hops; ++hop) {
        std::vector<std::string> row{std::to_string(hop)};
        for (const auto* stats : {&rand, &ring}) {
          // A curve is constant past its last hop: show its plateau.
          const std::size_t h =
              std::min(hop, stats->meanPctRemaining.size() - 1);
          row.push_back(fmtLog(stats->meanPctRemaining[h]));
          if (ranges)
            row.push_back(std::string("[")
                              .append(fmtLog(stats->minPctRemaining[h]))
                              .append("..")
                              .append(fmtLog(stats->maxPctRemaining[h]))
                              .append("]"));
        }
        table.addRow(std::move(row));
      }
      bench::printTable(table, scale.csv);
      std::printf("\n");
    }
  });
}

// -- independent churn experiments (Figs. 12, 13) ------------------------

/// Fig. 13's miss studies, in series order.
struct MissStudy {
  const char* label;
  Strategy strategy;
  std::uint32_t fanout;
};
constexpr MissStudy kMissStudies[] = {
    {"randcast_f3", Strategy::kRandCast, 3},
    {"randcast_f6", Strategy::kRandCast, 6},
    {"ringcast_f3", Strategy::kRingCast, 3},
    {"ringcast_f6", Strategy::kRingCast, 6},
};

void printMissPair(const char* title, const CountHistogram& randHist,
                   const CountHistogram& ringHist, bool csv) {
  std::printf("\n--- %s: misses by lifetime bin ---\n", title);
  Table table({"lifetime_bin", "randcast_misses", "ringcast_misses"});
  // Render over the union of log bins of both histograms.
  CountHistogram unionHist;
  unionHist.merge(randHist);
  unionHist.merge(ringHist);
  for (const auto& bin : logBins(unionHist)) {
    std::uint64_t randCount = 0;
    std::uint64_t ringCount = 0;
    for (std::uint64_t v = bin.lo; v <= bin.hi; ++v) {
      randCount += randHist.count(v);
      ringCount += ringHist.count(v);
    }
    const std::string label =
        bin.lo == bin.hi
            ? std::to_string(bin.lo)
            : std::to_string(bin.lo) + "-" + std::to_string(bin.hi);
    table.addRow(
        {label, std::to_string(randCount), std::to_string(ringCount)});
  }
  bench::printTable(table, csv);
  std::printf("totals: randcast %llu, ringcast %llu\n",
              static_cast<unsigned long long>(randHist.total()),
              static_cast<unsigned long long>(ringHist.total()));
}

void printLifetimes(const CountHistogram& lifetimes,
                    std::uint32_t experiments, bool csv) {
  std::printf("\nlifetimes aggregated over %u experiment(s), %llu nodes\n\n",
              experiments,
              static_cast<unsigned long long>(lifetimes.total()));
  std::fputs("lifetime (cycles)    count (bar is log-scaled)\n", stdout);
  std::fputs(renderLogBins(logBins(lifetimes)).c_str(), stdout);
  if (csv) {
    Table table({"lifetime", "count"});
    for (const auto& [lifetime, count] : lifetimes.sorted())
      table.addRow({std::to_string(lifetime), std::to_string(count)});
    std::fputs(table.renderCsv().c_str(), stdout);
  }
}

void runChurnExperiments(const Figure& figure, const bench::Scale& scale,
                         double churnRate, std::uint32_t experiments,
                         analysis::ParallelSweep& sweep,
                         bench::JsonReport& report) {
  const bool misses = figure.kind == Kind::kMissLifetimes;
  const std::size_t studies = misses ? std::size(kMissStudies) : 1;

  // The experiments (own churned network each, plus Fig. 13's miss
  // studies) are mutually independent, so they run across the pool with
  // quiet builds and merge in experiment order.
  bench::Stopwatch warmTimer;
  std::vector<std::vector<CountHistogram>> perExperiment(
      experiments, std::vector<CountHistogram>(studies));
  sweep.pool().parallelFor(experiments, [&](std::size_t e) {
    const auto scenario = bench::buildChurned(
        scale, churnRate, (misses ? 2000 : 1000) + e,
        /*maxChurnCycles=*/50'000, /*quiet=*/true);
    auto& histograms = perExperiment[e];
    if (!misses) {
      histograms[0] = analysis::lifetimeHistogram(scenario.network(),
                                                  scenario.engine().cycle());
      return;
    }
    // The outer sweep's pool is busy running this task: a local
    // one-thread sweep measures inside it.
    analysis::ParallelSweep local;
    for (std::size_t i = 0; i < studies; ++i) {
      const MissStudy& study = kMissStudies[i];
      histograms[i] =
          local
              .measureMissLifetimes(scenario, study.strategy, study.fanout,
                                    scale.runs,
                                    scale.seed + e * 10 + study.fanout)
              .missedLifetimes;
    }
  });
  std::printf("churn warm-up%s: %u independent networks at %.2f%%/cycle in "
              "%.2fs\n",
              misses ? " + studies" : "", experiments, churnRate * 100.0,
              warmTimer.seconds());

  std::vector<CountHistogram> aggregate(studies);
  for (const auto& histograms : perExperiment)
    for (std::size_t i = 0; i < studies; ++i)
      aggregate[i].merge(histograms[i]);

  if (!misses) {
    printLifetimes(aggregate[0], experiments, scale.csv);
    report.addSeries(bench::histogramSeries("lifetimes", aggregate[0]));
    return;
  }
  printMissPair("fanout 3", aggregate[0], aggregate[2], scale.csv);
  printMissPair("fanout 6", aggregate[1], aggregate[3], scale.csv);
  for (std::size_t i = 0; i < studies; ++i)
    report.addSeries(
        bench::histogramSeries(kMissStudies[i].label, aggregate[i]));
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(bench::studiesDescription(
      "Figs. 6-13 of Voulgaris & van Steen (Middleware 2007); --figure N "
      "regenerates one of them:",
      kFigures));
  parser.option("figure", "the figure to regenerate: 6..13 (required)")
      .option("churn", "churn rate per cycle, in (0, 1) (Figs. 11-13; "
                       "default 0.002)")
      .option("experiments", "independent churn networks to aggregate "
                             "(Figs. 12-13; default 2; paper used 100)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const Figure& figure = bench::rowOrExit(*args, "figure", kFigures);
  const bool readsChurn = bench::reads(figure, "churn");
  const bool readsExperiments = bench::reads(figure, "experiments");
  const auto scale =
      bench::resolveScale(*args, figure.quickNodes, figure.quickRuns,
                          bench::DefaultScale::kPaper);
  const double churnRate =
      readsChurn
          ? argOrExit([&] { return args->getRate("churn", 0.002); })
          : 0.0;
  const auto experiments =
      readsExperiments
          ? argOrExit([&] {
              return args->getPositiveUint32("experiments", 2);
            })
          : 0u;

  bench::printHeader(figure.title, figure.paperNote, scale);
  bench::JsonReport report(figure.bench, scale);
  if (readsChurn) report.setParam("churn_rate", churnRate);
  if (readsExperiments) report.setParam("experiments", experiments);
  auto sweep = bench::makeSweep(scale);

  switch (figure.kind) {
    case Kind::kMissAndComplete:
    case Kind::kOverhead:
      runEffectiveness(figure, scale, churnRate, sweep, report);
      break;
    case Kind::kProgressRanges:
    case Kind::kProgress:
      runProgress(figure, scale, sweep, report);
      break;
    case Kind::kLifetimes:
    case Kind::kMissLifetimes:
      runChurnExperiments(figure, scale, churnRate, experiments, sweep,
                          report);
      break;
  }
  report.write(scale);
  return 0;
}
