// Ablations of the paper's §3 overlays and §7.3/§8 extensions, one table
// row per study:
//
//   ablations --study band_boost|multiring|overlay|pullcast
//             [--quick | --paper] [--threads T] [--json F]
//
// * overlay (§3): the deterministic flooding overlays — spanning tree,
//   star, bidirectional ring (= Harary-2), Harary graphs of higher
//   connectivity. For each: message cost of a complete flood, and miss
//   ratio after killing a fraction of the nodes (flooding, no healing).
//   Expected shape (§3's qualitative discussion): tree = minimal messages
//   (N-1) but any interior failure loses a branch; star = 2 hops, hub
//   failure loses everything; ring = cheap, survives any 1 failure,
//   partitions at 2+; Harary(t) survives t-1 failures at proportional
//   link cost; clique = bulletproof and absurdly expensive.
// * band_boost (§8, §7.3), two ablations:
//   1. Harary-band d-links ("design gossiping protocols that form Harary
//      graphs of higher connectivity", §8): d-links = the `w` nearest ring
//      successors + predecessors, giving H(2w, n) at convergence. The
//      matrix over (band width x fanout) exposes the §5 design insight:
//      wider bands help only while the fanout leaves room for r-links —
//      once d-links swallow the whole fanout, dissemination degenerates
//      to pure determinism and a run of w dead nodes partitions it.
//   2. Joiner gossip boost ("new nodes can gossip at an arbitrarily
//      higher rate for the first few cycles", §7.3): young-node miss
//      ratio under churn with and without the boost.
// * multiring (§8): multi-ring RINGCAST. Nodes maintain k independent
//   rings (different random id per ring); the d-link graph's connectivity
//   grows with k, trading gossip maintenance traffic for failure
//   resilience. Expected shape: at a fixed low fanout, the miss ratio
//   after a severe catastrophic failure drops sharply as rings are added;
//   in a fail-free network all variants are already complete.
// * pullcast (§8 future work): pull-based recovery on top of push
//   dissemination —
//     "We expect it to significantly improve the efficiency of the
//      protocol in terms of reliability. However, additional issues have
//      to be taken into account, such as the pull frequency, the duration
//      for which nodes maintain old messages, the size of buffers on
//      nodes ..."
//   Setup: RINGCAST push at a low fanout over a network that just lost a
//   fraction of its nodes (no overlay healing before the push, as in
//   §7.2); then anti-entropy pulls run for a few cycles. Reported: miss
//   ratio after the push wave and after each pull round, plus the pull
//   traffic paid — the reliability/overhead trade of the §8 knobs.
//
// Every study defaults to its quick scale; --paper raises it. The JSON
// record's "bench" name is the study's own (overlay_ablation, ...), so
// records compare across versions.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "cast/snapshot.hpp"
#include "common/table.hpp"
#include "overlay/graph.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

/// The study-specific flags, read only by the studies that list them.
struct Knobs {
  double churnRate = 0.0;    ///< --churn (band_boost)
  std::uint32_t fanout = 0;  ///< --fanout (multiring)
};

using StudyFn = void (*)(const bench::Scale&, const Knobs&,
                         analysis::ParallelSweep&, bench::JsonReport&);

// -- band_boost: Harary bands (§8) and the joiner boost (§7.3) ------------

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
  bench::printTable(table, scale.csv);
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
  bench::printTable(table, scale.csv);
  report.addSeries(bench::tableSeries("joiner_boost", table));
}

void bandBoost(const bench::Scale& scale, const Knobs& knobs,
               analysis::ParallelSweep& sweep, bench::JsonReport& report) {
  report.setParam("churn_rate", knobs.churnRate);
  bandMatrix(scale, sweep, report);
  boostAblation(scale, knobs.churnRate, sweep, report);
}

// -- multiring: miss ratio vs ring count (§8) -----------------------------

void multiring(const bench::Scale& scale, const Knobs& knobs,
               analysis::ParallelSweep& sweep, bench::JsonReport& report) {
  const std::uint32_t fanout = knobs.fanout;
  report.setParam("fanout", fanout);

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

  bench::printTable(table, scale.csv);
  std::printf("\nfanout %u, %u runs per cell\n", fanout, scale.runs);

  report.addSeries(bench::tableSeries("multiring_miss", table));
}

// -- overlay: §3 flooding cost and resilience -----------------------------

struct OverlayCase {
  std::string name;
  std::function<overlay::Graph(std::uint32_t, Rng&)> build;
};

void overlays(const bench::Scale& scale, const Knobs& /*knobs*/,
              analysis::ParallelSweep& sweep, bench::JsonReport& report) {
  const std::vector<OverlayCase> cases = {
      {"tree", [](std::uint32_t n, Rng& rng) {
         return overlay::makeRandomTree(n, rng);
       }},
      {"star", [](std::uint32_t n, Rng&) { return overlay::makeStar(n); }},
      {"ring(H2)", [](std::uint32_t n, Rng&) { return overlay::makeRing(n); }},
      {"harary3", [](std::uint32_t n, Rng&) {
         return overlay::makeHarary(3, n);
       }},
      {"harary4", [](std::uint32_t n, Rng&) {
         return overlay::makeHarary(4, n);
       }},
      {"harary6", [](std::uint32_t n, Rng&) {
         return overlay::makeHarary(6, n);
       }},
  };

  Table table({"overlay", "links/node", "msgs_failfree", "miss%_kill1",
               "miss%_kill2", "miss%_kill1%", "miss%_kill5%"});

  for (const auto& testCase : cases) {
    Rng buildRng(scale.seed);
    const auto graph = testCase.build(scale.nodes, buildRng);
    const double linksPerNode =
        static_cast<double>(graph.edgeCount()) / graph.size();

    std::vector<std::string> row{testCase.name, fmt(linksPerNode, 1)};
    // Fail-free flood cost.
    const auto clean = sweep.measureEffectiveness(
        cast::snapshotGraph(graph), cast::selectorFor(Strategy::kFlood), 1,
        scale.runs, scale.seed + 1);
    row.push_back(fmt(clean.avgMessagesTotal, 0));

    // Kill sweeps: absolute counts (1, 2 nodes) probe the Harary bound;
    // percentage kills (1%, 5%) probe large-scale damage.
    for (const std::uint32_t killCount :
         {1u, 2u, scale.nodes / 100, scale.nodes / 20}) {
      // Each repetition (kill pattern + flood) derives its own stream
      // from (seed + count, rep), so repetitions are independent cells:
      // they run across the pool and sum in repetition order.
      std::vector<double> missPerRep(scale.runs, 0.0);
      sweep.pool().parallelFor(scale.runs, [&](std::size_t rep) {
        Rng killRng(deriveStreamSeed(scale.seed + killCount, rep));
        std::vector<std::uint8_t> alive(scale.nodes, 1);
        for (std::uint32_t k = 0; k < killCount;) {
          const auto victim =
              static_cast<NodeId>(killRng.below(scale.nodes));
          if (alive[victim]) {
            alive[victim] = 0;
            ++k;
          }
        }
        // A local one-thread sweep: the outer one's pool is busy here.
        const auto point = analysis::ParallelSweep().measureEffectiveness(
            cast::snapshotGraph(graph, alive),
            cast::selectorFor(Strategy::kFlood), 1, 1, killRng());
        missPerRep[rep] = point.avgMissPercent;
      });
      double missSum = 0.0;
      for (const double miss : missPerRep) missSum += miss;
      row.push_back(fmtLog(missSum / scale.runs));
    }
    table.addRow(std::move(row));
  }

  bench::printTable(table, scale.csv);
  std::printf(
      "\nNote: clique omitted from kill sweeps by default (O(N^2) links); "
      "its miss ratio is 0 for any failure not killing the origin.\n");

  report.addSeries(bench::tableSeries("overlay_resilience", table));
}

// -- pullcast: push+pull recovery (§8 future work) ------------------------

/// A warmed-up scenario plus its push+pull live session.
struct Feed {
  analysis::Scenario scenario;
  cast::LiveSession& session;

  Feed(std::uint32_t nodes, cast::CastOptions options, std::uint64_t seed,
       sim::TimingConfig timing = {})
      : scenario(analysis::Scenario::builder()
                     .nodes(nodes)
                     .seed(seed)
                     .timing(timing)
                     .build()),
        session(scenario.liveSession(options)) {}
};

void pullcast(const bench::Scale& scale, const Knobs& /*knobs*/,
              analysis::ParallelSweep& /*sweep*/, bench::JsonReport& report) {
  // Part 1: miss ratio vs pull rounds, for increasing failure volumes.
  std::printf("--- miss%% after the push wave and after k pull rounds "
              "(RingCast push, fanout 2, pull every cycle) ---\n");
  Table progress({"kill%", "push_only", "1_round", "2_rounds", "4_rounds",
                  "8_rounds", "pulls/node/round"});
  for (const double kill : {0.05, 0.10, 0.20}) {
    Feed feed(scale.nodes,
              {.strategy = Strategy::kPushPull, .fanout = 2,
               .pullInterval = 1},
              scale.seed + static_cast<std::uint64_t>(kill * 100),
              scale.timing);
    feed.scenario.killRandomFraction(kill);

    const auto wave =
        feed.session.publish(feed.scenario.network().aliveIds().front());
    const auto id = feed.session.lastDataId();
    std::vector<std::string> row{fmt(kill * 100, 0),
                                 fmtLog(wave.missRatioPercent())};
    const auto pullsBefore = feed.session.live().pullRequestsSent();
    std::uint64_t cyclesRun = 0;
    for (const std::uint64_t upTo : {1u, 2u, 4u, 8u}) {
      feed.scenario.runCycles(upTo - cyclesRun);
      cyclesRun = upTo;
      row.push_back(fmtLog(feed.session.report(id).missRatioPercent()));
    }
    const double pullsPerNodeRound =
        static_cast<double>(feed.session.live().pullRequestsSent() -
                            pullsBefore) /
        (static_cast<double>(feed.scenario.network().aliveCount()) *
         cyclesRun);
    row.push_back(fmt(pullsPerNodeRound, 2));
    progress.addRow(std::move(row));
  }
  bench::printTable(progress, scale.csv);
  report.addSeries(bench::tableSeries("pull_rounds", progress));

  // Part 2: the §8 knobs — pull frequency and buffer capacity.
  std::printf("\n--- pull frequency: miss%% after 8 cycles, 10%% dead, "
              "fanout 2 ---\n");
  Table frequency({"pull_every_k_cycles", "miss%_after_8_cycles",
                   "pull_requests_total"});
  for (const std::uint32_t interval : {0u, 1u, 2u, 4u, 8u}) {
    // interval 0 = pure push; expressed as plain RINGCAST live push.
    cast::CastOptions options{.fanout = 2};
    options.strategy =
        interval == 0 ? Strategy::kRingCast : Strategy::kPushPull;
    if (interval > 0) options.pullInterval = interval;
    Feed feed(scale.nodes, options, scale.seed + 77 + interval,
              scale.timing);
    feed.scenario.killRandomFraction(0.10);
    feed.session.publish(feed.scenario.network().aliveIds().front());
    const auto id = feed.session.lastDataId();
    feed.scenario.runCycles(8);
    frequency.addRow({interval == 0 ? "never (push only)"
                                    : std::to_string(interval),
                      fmtLog(feed.session.report(id).missRatioPercent()),
                      std::to_string(feed.session.live().pullRequestsSent())});
  }
  bench::printTable(frequency, scale.csv);
  report.addSeries(bench::tableSeries("pull_frequency", frequency));

  // Part 3: buffer capacity — how many subsequent publishes an old
  // message survives before latecomers can no longer fetch it.
  //
  // Always synchronous delivery here (only the timer mode is kept from
  // --timing): with buffers this tiny and several ids in flight, the §8
  // evict/re-forward rule is *supercritical* under asynchronous delivery
  // — each delivery of an evicted id spawns a fresh fanout-wide wave
  // faster than waves die out, so in-flight traffic grows without bound.
  // Synchronous cascades terminate, which is what this ablation needs.
  auto bufferTiming = scale.timing;
  bufferTiming.latency = sim::LatencyModel::none();
  std::printf("\n--- buffer capacity: can a fresh joiner still pull message "
              "#1 after k more publishes? ---\n");
  Table buffers({"capacity", "publishes_after", "joiner_got_msg1"});
  for (const std::uint32_t capacity : {2u, 4u, 8u}) {
    for (const std::uint32_t extra : {1u, 3u, 7u}) {
      Feed feed(scale.nodes / 2,
                {.strategy = Strategy::kPushPull, .fanout = 3,
                 .pullInterval = 1, .bufferCapacity = capacity,
                 .pullBudget = 16},
                scale.seed + 200 + capacity * 10 + extra, bufferTiming);
      feed.session.publish(0);
      const auto first = feed.session.lastDataId();
      for (std::uint32_t i = 0; i < extra; ++i) feed.session.publish(0);
      auto& network = feed.scenario.network();
      const NodeId joiner = network.spawn(feed.scenario.engine().cycle());
      Rng rng(scale.seed + 5);
      NodeId introducer = joiner;
      while (introducer == joiner) introducer = network.randomAlive(rng);
      feed.scenario.cyclon().onJoin(joiner, introducer);
      feed.scenario.rings().onJoin(joiner, introducer);
      feed.scenario.runCycles(10);
      buffers.addRow({std::to_string(capacity), std::to_string(extra),
                      feed.session.live().hasDelivered(first, joiner)
                          ? "yes"
                          : "no"});
    }
  }
  bench::printTable(buffers, scale.csv);
  report.addSeries(bench::tableSeries("buffer_capacity", buffers));
}

// -- the study table and the command line ---------------------------------

struct Study {
  const char* name;   ///< the --study value
  const char* bench;  ///< the JSON record's "bench" name
  const char* title;
  const char* paperNote;
  std::uint32_t quickNodes;
  std::uint32_t quickRuns;
  std::vector<std::string> flags;  ///< study-specific flags it reads
  StudyFn run;
};

const Study kStudies[] = {
    {"band_boost", "band_boost_ablation",
     "Harary-band + joiner-boost ablations (paper §7.3/§8 extensions)",
     "wider deterministic bands help only while fanout leaves room for "
     "r-links; boosting fresh joiners' gossip rate removes most "
     "young-node misses",
     1'000, 25, {"churn"}, bandBoost},
    {"multiring", "multiring_ablation",
     "Multi-ring RingCast ablation (paper §8 extension)",
     "more rings = higher d-link connectivity = lower miss ratio after "
     "catastrophic failures, at higher maintenance cost",
     1'500, 25, {"fanout"}, multiring},
    {"overlay", "overlay_ablation",
     "Overlay ablation (paper §3): flooding cost and resilience",
     "tree = optimal messages but fragile; star = hub bottleneck; "
     "ring survives 1 failure; Harary(t) survives t-1; clique survives "
     "anything at O(N^2) cost",
     1'000, 30, {}, overlays},
    {"pullcast", "pullcast_ablation",
     "Push+pull ablation (paper §8 future work)",
     "pull converts push misses into short delays; reliability rises "
     "with pull rounds at the cost of digest traffic; tiny buffers cap "
     "how far back pull can repair",
     1'500, 1, {}, pullcast},
};

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(bench::studiesDescription(
      "Ablations of the paper's §3 overlays and §7.3/§8 extensions; "
      "--study NAME runs one of them:",
      kStudies));
  parser.option("study", "the study to run: band_boost | multiring | "
                         "overlay | pullcast (required)")
      .option("churn", "churn rate per cycle, in (0, 1) (band_boost; "
                       "default 0.005)")
      .option("fanout", "fanout to run at (multiring; default 2)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const Study& study = bench::rowOrExit(*args, "study", kStudies);
  const auto scale =
      bench::resolveScale(*args, study.quickNodes, study.quickRuns);
  Knobs knobs;
  if (bench::reads(study, "churn"))
    knobs.churnRate = argOrExit([&] { return args->getRate("churn", 0.005); });
  if (bench::reads(study, "fanout"))
    knobs.fanout =
        argOrExit([&] { return args->getPositiveUint32("fanout", 2); });

  bench::printHeader(study.title, study.paperNote, scale);
  bench::JsonReport report(study.bench, scale);
  auto sweep = bench::makeSweep(scale);
  study.run(scale, knobs, sweep, report);
  report.write(scale);
  return 0;
}
