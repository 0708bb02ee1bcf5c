// vs07_perfbench — the repository's end-to-end benchmark (perfbench/README.md
// explains the workloads and how each metric maps onto a layer).
//
// One process runs one workload for one seed. A workload is a timing
// model of the simulated system; every workload performs the same four
// user operations on it, through the public API of analysis::Scenario,
// cast and search:
//
//   gossip   timed Scenario::runCycles(1) on a population warmed on the
//            sharded engine (node_cycles_per_s);
//   live     one fixed, seeded window of rate-driven push+pull traffic
//            on a smaller sequential-engine population (deliveries_per_s
//            and the publish-to-delivery tick percentiles);
//   publish  batches of RingCast F=3 publishes, each batch on a fresh
//            SnapshotSession over the overlay frozen at the end of set-up
//            (publishes_per_s, ringcast_last_hop);
//   query    batches of TTL-gossip queries, each batch on a fresh
//            QuerySession over the same overlay (queries_per_s,
//            search_hit_pct).
//
// The four interleave over the measured time in blocks, and the first
// sample of each block is not timed, so a timed sample never pays for the
// cache state another operation left behind. Each timed sample repeats
// identical work, so a sample's simulated outputs must equal the first
// sample's; set-up runs several times and must produce the same overlay
// each time, and the same overlay at one engine worker. The last stdout
// line is a JSON object: end-to-end metrics untraced, per-layer metrics
// (from spans and counts recorded around the library calls) with
// --trace 1.
//
//   vs07_perfbench --workload lockstep --seed 1 --seconds 20 --trace 0
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/graph_analysis.hpp"
#include "analysis/scenario.hpp"
#include "cast/traffic.hpp"
#include "common/alloc_probe.hpp"
#include "common/cli.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/resource.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "trace.hpp"

namespace {

using namespace vs07;
using perfbench::Clock;
using perfbench::Trace;

// -- workloads and scales -----------------------------------------------

struct Workload {
  const char* name;
  /// Timing of the gossip population (sharded engine): CycleSync runs
  /// the lockstep schedule, jittered + latency the windowed one.
  sim::TimingConfig gossipTiming;
  /// Timing of the live-traffic population (sequential engine). Delivery
  /// ticks need a clock that in-flight messages live on, so both carry a
  /// latency: lockstep rounds (every message arrives one cycle later, the
  /// round model of the Mundinger floor), or uniform(1,4) ticks.
  sim::TimingConfig liveTiming;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    sim::TimingConfig lockstepLive = sim::TimingConfig::cycleSync();
    lockstepLive.latency = sim::LatencyModel::fixed(1);
    const auto windowed =
        sim::TimingConfig::jitteredLatency(sim::LatencyModel::uniform(1, 4));
    return std::vector<Workload>{
        {"lockstep", sim::TimingConfig::cycleSync(), lockstepLive},
        {"windowed", windowed, windowed},
    };
  }();
  return kWorkloads;
}

/// Engine workers of the sharded gossip population.
constexpr std::uint32_t kEngineWorkers = 2;

struct Sizes {
  std::uint32_t gossipNodes;
  std::uint32_t warmupCycles;
  std::uint32_t liveNodes;
  std::uint32_t liveWarmupCycles;
  std::uint32_t trafficCycles;
  std::uint32_t drainCycles;
  double messagesPerCycle;
  std::uint32_t publishesPerBatch;
  std::uint32_t queriesPerBatch;
  std::uint32_t replication;
  std::uint32_t setupRepeats;
  /// Samples per block of one operation; the first is not timed.
  std::uint32_t gossipBlock;
  std::uint32_t batchBlock;
  std::uint32_t minSamples;
};

constexpr Sizes kFullSizes{.gossipNodes = 20'000,
                           .warmupCycles = 30,
                           .liveNodes = 5'000,
                           .liveWarmupCycles = 30,
                           .trafficCycles = 24,
                           .drainCycles = 12,
                           .messagesPerCycle = 2.0,
                           .publishesPerBatch = 30,
                           .queriesPerBatch = 20'000,
                           .replication = 512,
                           .setupRepeats = 3,
                           .gossipBlock = 5,
                           .batchBlock = 3,
                           .minSamples = 5};

/// The scale the benchmark's own tests run at.
constexpr Sizes kTinySizes{.gossipNodes = 600,
                           .warmupCycles = 20,
                           .liveNodes = 300,
                           .liveWarmupCycles = 20,
                           .trafficCycles = 10,
                           .drainCycles = 12,
                           .messagesPerCycle = 2.0,
                           .publishesPerBatch = 5,
                           .queriesPerBatch = 200,
                           .replication = 64,
                           .setupRepeats = 2,
                           .gossipBlock = 3,
                           .batchBlock = 2,
                           .minSamples = 3};

// Input streams derived from --seed (one lane per input).
enum Lane : std::uint64_t {
  kGossipPopulation = 1,
  kLivePopulation = 2,
  kPublishes = 3,
  kQueries = 4,
  kTraffic = 5,
  kLiveCast = 6,
};

std::uint64_t inputSeed(std::uint64_t seed, Lane lane) {
  return deriveStreamSeed(seed, 0x70657266ULL, lane);  // "perf"
}

/// Order-sensitive hash of simulated outputs.
class Fingerprint {
 public:
  void add(std::uint64_t value) { h_ = mix64(h_ ^ value) + 0x9E37; }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x6669'6E67'6572'7072ULL;
};

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

/// The check every run reports in `correct`: a failed one names itself.
struct Checks {
  bool ok = true;
  void expect(bool condition, const std::string& what) {
    if (condition) return;
    ok = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

// -- set-up ----------------------------------------------------------------

/// Views of every alive node plus the gossip message count.
std::uint64_t overlayFingerprint(const analysis::Scenario& s) {
  Fingerprint fp;
  fp.add(s.cyclesRun());
  fp.add(s.gossipMessagesSent());
  const sim::Network& network = s.network();
  for (NodeId n = 0; n < network.totalCreated(); ++n) {
    if (!network.isAlive(n)) continue;
    for (const auto& e : s.cyclon().view(n).entries()) {
      fp.add(e.node);
      fp.add(e.age);
    }
    for (const auto& e : s.vicinity().view(n).entries()) fp.add(e.node);
  }
  return fp.value();
}

cast::CastOptions liveOptions(std::uint64_t seed) {
  return {.strategy = cast::Strategy::kPushPull,
          .fanout = 3,
          .seed = inputSeed(seed, kLiveCast),
          .bufferCapacity = 64,
          .maxTrackedMessages = 256,
          .completedLingerTicks = 8};
}

analysis::Scenario buildGossip(const Workload& w, const Sizes& z,
                               std::uint64_t seed, std::uint32_t threads,
                               Trace& trace) {
  auto span = trace.span("analysis.build");
  return analysis::Scenario::builder()
      .nodes(z.gossipNodes)
      .seed(inputSeed(seed, kGossipPopulation))
      .engineThreads(threads)
      .timing(w.gossipTiming)
      .warmupCycles(z.warmupCycles)
      .noWarmup()
      .build();
}

struct Populations {
  std::optional<analysis::Scenario> gossip;
  std::optional<analysis::Scenario> live;
  cast::LiveSession* session = nullptr;
  /// The gossip overlay frozen at the end of set-up (r-links + ring
  /// d-links): every publish and query batch starts a session on a copy.
  std::optional<cast::OverlaySnapshot> frozen;
  /// The live window's publisher; destroyed before the scenario it drives.
  std::unique_ptr<cast::TrafficSource> traffic;
  std::uint64_t gossipFingerprint = 0;  ///< gossip overlay after warm-up
  std::uint64_t fingerprint = 0;        ///< both overlays after warm-up
};

void setUp(Populations& p, const Workload& w, const Sizes& z,
           std::uint64_t seed, Trace& trace) {
  auto root = trace.span("bench.setup");
  p.gossip.emplace(buildGossip(w, z, seed, kEngineWorkers, trace));
  {
    auto span = trace.span("analysis.warmup");
    p.gossip->warmup();
  }
  {
    auto span = trace.span("cast.snapshot");
    p.frozen.emplace(p.gossip->snapshot(cast::Strategy::kRingCast));
  }
  {
    auto span = trace.span("analysis.build");
    p.live.emplace(analysis::Scenario::builder()
                       .nodes(z.liveNodes)
                       .seed(inputSeed(seed, kLivePopulation))
                       .timing(w.liveTiming)
                       .warmupCycles(z.liveWarmupCycles)
                       .noWarmup()
                       .build());
  }
  {
    auto span = trace.span("analysis.warmup");
    p.live->warmup();
  }
  p.session = &p.live->liveSession(liveOptions(seed));
  auto span = trace.span("bench.fingerprint");
  p.gossipFingerprint = overlayFingerprint(*p.gossip);
  Fingerprint fp;
  fp.add(p.gossipFingerprint);
  fp.add(overlayFingerprint(*p.live));
  p.fingerprint = fp.value();
}

// -- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  std::size_t samples = 0;
};

struct Run {
  std::vector<double> setupSeconds;
  std::vector<double> cycleSeconds;
  std::vector<double> liveCycleSeconds;
  std::vector<double> publishBatchSeconds;
  std::vector<double> queryBatchSeconds;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Fingerprint fingerprint;

  // Simulated outputs (identical for a given workload and seed).
  CountHistogram deliveryTicks;
  cast::SteadyStateStats steady;
  std::uint64_t floorTicks = 0;
  std::uint64_t incomplete = 0;
  double lastHopMean = 0.0;
  double missPercent = 0.0;
  double ringConvergedPercent = 0.0;  ///< at the end of set-up
  std::uint64_t publishMessages = 0;
  std::uint64_t publishRedundant = 0;
  search::SearchReport search;
};

std::uint32_t ceilLog2(std::uint64_t n) {
  std::uint32_t bits = 0;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

/// Nearest-rank percentile of an exact count histogram.
double histogramPercentile(const CountHistogram& h, double p) {
  if (h.total() == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(h.total())));
  std::uint64_t seen = 0;
  for (const auto& [value, count] : h.sorted()) {
    seen += count;
    if (seen >= std::max<std::uint64_t>(rank, 1))
      return static_cast<double>(value);
  }
  return static_cast<double>(h.maxValue());
}

// -- timed phases ----------------------------------------------------------

/// The live-traffic window: one fixed, seeded schedule of rate-driven
/// publishes followed by a drain. Its per-cycle cost drifts by design
/// (buffers fill), so it is timed as a whole; its cycles are spread
/// evenly over the measured time, between the other samples.
struct LiveWindow {
  std::unordered_map<std::uint64_t, std::uint64_t> publishTick;
  std::uint64_t messages = 0;
  std::uint32_t cycles = 0;
  std::uint32_t done = 0;
  double inFlightSum = 0.0;
};

void startLive(Populations& p, const Sizes& z, std::uint64_t seed,
               LiveWindow& window, Run& run) {
  sim::Engine& engine = p.live->engine();
  cast::LiveCast& cast = p.session->live();
  window.messages = static_cast<std::uint64_t>(
      z.messagesPerCycle * static_cast<double>(z.trafficCycles));
  window.cycles = z.trafficCycles + z.drainCycles;
  window.publishTick.reserve(window.messages * 2);
  cast.setDeliveryHook(
      [&window, &run, &engine](NodeId, std::uint64_t dataId, std::uint32_t,
                               bool) {
        const auto it = window.publishTick.find(dataId);
        if (it != window.publishTick.end())
          run.deliveryTicks.add(engine.tick() - it->second);
      });
  p.traffic = std::make_unique<cast::TrafficSource>(
      engine, p.live->network(), cast,
      cast::TrafficSource::Params{.messagesPerCycle = z.messagesPerCycle,
                                  .poisson = false,
                                  .maxMessages = window.messages},
      inputSeed(seed, kTraffic));
  p.traffic->setPublishHook(
      [&window](std::uint64_t dataId, NodeId, std::uint64_t tick) {
        window.publishTick.emplace(dataId, tick);
      });
  engine.addControl(*p.traffic);
}

void liveCycle(Populations& p, LiveWindow& window, Trace& trace, Run& run) {
  {
    auto span = trace.span("live.cycle");
    const auto start = Clock::now();
    p.live->engine().run(1);
    run.liveCycleSeconds.push_back(secondsSince(start));
  }
  if (trace.enabled())
    window.inFlightSum +=
        static_cast<double>(p.live->latencyTransport()->inFlight());
  ++window.done;
}

void finishLive(Populations& p, const Sizes& z, LiveWindow& window,
                Trace& trace, Run& run, Checks& checks) {
  cast::LiveCast& cast = p.session->live();
  cast.setDeliveryHook(nullptr);
  run.steady = cast.steadyStats();
  for (std::uint64_t id = 1; id <= p.traffic->published(); ++id)
    if (cast.isTracked(id) && !cast.stats(id).completed()) ++run.incomplete;
  run.floorTicks = static_cast<std::uint64_t>(ceilLog2(z.liveNodes)) *
                   p.live->timing().ticksPerCycle;
  run.attempted += p.traffic->published();
  run.failed += run.steady.retiredAgedOut + run.incomplete;
  checks.expect(p.traffic->published() == window.messages,
                "live window published every scheduled message");
  checks.expect(run.deliveryTicks.total() > 0, "live deliveries observed");

  trace.count("live.in_flight_sum", window.inFlightSum);

  Fingerprint& fp = run.fingerprint;
  fp.add(run.steady.published);
  fp.add(run.steady.firstDeliveries);
  fp.add(run.steady.pushDeliveries);
  fp.add(run.steady.pullDeliveries);
  fp.add(run.steady.redundantDeliveries);
  for (const auto& [ticks, count] : run.deliveryTicks.sorted()) {
    fp.add(ticks);
    fp.add(count);
  }
}

/// Outputs of the first publish and query batch; every later batch
/// starts a fresh session with the same seed and must repeat them.
struct FrozenBaseline {
  std::optional<std::uint64_t> publishDigest;
  std::optional<search::SearchReport> search;
};

/// A warm-in sample (`timed` false) does the same work and checks, but
/// its time is not a sample and its layer calls are not traced: the whole
/// sample is one "bench.warm_in" span.
void publishBatch(const Populations& p, const Sizes& z,
                  const cast::CastOptions& options, FrozenBaseline& baseline,
                  Trace& trace, bool timed, Run& run, Checks& checks) {
  Trace untraced(false);
  Trace& layers = timed ? trace : untraced;
  Fingerprint digest;
  std::uint64_t lastHops = 0;
  std::uint64_t missed = 0;
  std::uint64_t alive = 0;
  std::uint64_t messages = 0;
  std::uint64_t redundant = 0;
  {
    auto batch = trace.span(timed ? "bench.publish_batch" : "bench.warm_in");
    const auto start = Clock::now();
    auto session = [&] {
      auto span = layers.span("cast.session");
      return cast::SnapshotSession(*p.frozen, options);
    }();
    for (std::uint32_t i = 0; i < z.publishesPerBatch; ++i) {
      cast::DeliveryReport report;
      {
        auto span = layers.span("cast.publish");
        report = session.publishFromRandom();
      }
      digest.add(report.origin);
      digest.add(report.notified);
      digest.add(report.messagesTotal);
      digest.add(report.messagesRedundant);
      digest.add(report.lastHop);
      lastHops += report.lastHop;
      missed += report.aliveTotal - report.notified;
      alive += report.aliveTotal;
      messages += report.messagesTotal;
      redundant += report.messagesRedundant;
    }
    if (timed) run.publishBatchSeconds.push_back(secondsSince(start));
  }
  run.attempted += z.publishesPerBatch;
  if (!baseline.publishDigest) {
    baseline.publishDigest = digest.value();
    run.lastHopMean = static_cast<double>(lastHops) / z.publishesPerBatch;
    run.missPercent =
        100.0 * static_cast<double>(missed) / static_cast<double>(alive);
    run.publishMessages = messages;
    run.publishRedundant = redundant;
    run.fingerprint.add(digest.value());
  }
  checks.expect(digest.value() == *baseline.publishDigest,
                "every publish batch repeats the first batch's outputs");
}

void queryBatch(const Populations& p, const Sizes& z,
                const search::QueryOptions& options, FrozenBaseline& baseline,
                Trace& trace, bool timed, Run& run, Checks& checks) {
  Trace untraced(false);
  Trace& layers = timed ? trace : untraced;
  search::SearchReport report;
  {
    auto batch = trace.span(timed ? "bench.query_batch" : "bench.warm_in");
    const auto start = Clock::now();
    auto session = [&] {
      auto span = layers.span("search.session");
      return search::QuerySession(*p.frozen, options);
    }();
    {
      auto span = layers.span("search.query");
      report = session.run(z.queriesPerBatch);
    }
    if (timed) run.queryBatchSeconds.push_back(secondsSince(start));
  }
  run.attempted += report.queries;
  run.failed += report.queries - report.resolved;
  if (!baseline.search) {
    baseline.search = report;
    run.search = report;
    Fingerprint& fp = run.fingerprint;
    fp.add(report.queries);
    fp.add(report.resolved);
    fp.add(report.cacheResolved);
    fp.add(report.messagesTotal);
    fp.add(report.hopsToResolveTotal);
  }
  checks.expect(report == *baseline.search,
                "every query batch repeats the first batch's outputs");
}

/// One sample per Scenario::runCycles(1) on the gossip population.
void gossipCycle(analysis::Scenario& s, Trace& trace, bool timed, Run& run) {
  ++run.attempted;
  if (!timed) {
    auto span = trace.span("bench.warm_in");
    s.runCycles(1);
    return;
  }
  auto span = trace.span("sim.cycle");
  const std::uint64_t sent = trace.enabled() ? s.gossipMessagesSent() : 0;
  const std::uint64_t shuffles =
      trace.enabled() ? s.cyclon().shufflesInitiated() : 0;
  const AllocScope allocs;
  const auto start = Clock::now();
  s.runCycles(1);
  run.cycleSeconds.push_back(secondsSince(start));
  if (!trace.enabled()) return;
  trace.count("sim.allocs", static_cast<double>(allocs.allocations()));
  trace.count("sim.msgs", static_cast<double>(s.gossipMessagesSent() - sent));
  trace.count("gossip.shuffles",
              static_cast<double>(s.cyclon().shufflesInitiated() - shuffles));
  trace.count("sim.in_flight_sum",
              static_cast<double>(s.shardedEngine()->storedInFlight()));
}

/// The measured window. Rounds of (live cycles due, a block of gossip
/// cycles, a block of publish batches, a block of query batches) run until
/// `seconds` have passed, with the live window's cycles spread evenly over
/// the same time, so every metric's samples see the whole window rather
/// than one slice of it. The first sample of each block is a warm-in that
/// is not timed: the timed samples after it find their own working set in
/// cache and the allocator, not the previous operation's. Gossip cycles
/// change the live overlay, but publishes and queries replay the overlay
/// frozen at set-up, so their samples stay identical.
void measure(Populations& p, const Sizes& z, std::uint64_t seed,
             double seconds, Trace& trace, Run& run, Checks& checks) {
  auto root = trace.span("bench.measure");
  const cast::CastOptions castOptions{.strategy = cast::Strategy::kRingCast,
                                      .fanout = 3,
                                      .seed = inputSeed(seed, kPublishes)};
  // Caches learn from answer paths only (no advertisement seeding), so
  // forwarding does most of the work; the replication still resolves
  // every query.
  auto queryOptions = search::QueryOptions::ttlGossip(8, 2);
  queryOptions.replication = z.replication;
  queryOptions.advertiseToNeighbours = false;
  queryOptions.seed = inputSeed(seed, kQueries);

  LiveWindow live;
  startLive(p, z, seed, live, run);
  FrozenBaseline baseline;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = secondsSince(start);
    if (elapsed >= seconds && run.queryBatchSeconds.size() >= z.minSamples)
      break;
    while (live.done < live.cycles &&
           elapsed >= seconds * live.done / live.cycles)
      liveCycle(p, live, trace, run);
    for (std::uint32_t i = 0; i < z.gossipBlock; ++i)
      gossipCycle(*p.gossip, trace, i > 0, run);
    for (std::uint32_t i = 0; i < z.batchBlock; ++i)
      publishBatch(p, z, castOptions, baseline, trace, i > 0, run, checks);
    for (std::uint32_t i = 0; i < z.batchBlock; ++i)
      queryBatch(p, z, queryOptions, baseline, trace, i > 0, run, checks);
  }
  while (live.done < live.cycles) liveCycle(p, live, trace, run);
  finishLive(p, z, live, trace, run, checks);
}

// -- reporting -------------------------------------------------------------

std::vector<Metric> endToEnd(const Run& run, const Sizes& z) {
  const double cycle = median(run.cycleSeconds);
  const double publishBatch = median(run.publishBatchSeconds);
  const double queryBatch = median(run.queryBatchSeconds);
  return {
      {"setup_s", median(run.setupSeconds), "s", run.setupSeconds.size()},
      {"peak_rss_mib", static_cast<double>(peakRssBytes()) / (1 << 20), "MiB",
       1},
      {"node_cycles_per_s", z.gossipNodes / cycle, "1/s",
       run.cycleSeconds.size()},
      {"deliveries_per_s",
       static_cast<double>(run.steady.firstDeliveries) /
           std::accumulate(run.liveCycleSeconds.begin(),
                           run.liveCycleSeconds.end(), 0.0),
       "1/s", run.liveCycleSeconds.size()},
      {"delivery_p50_ticks", histogramPercentile(run.deliveryTicks, 50.0),
       "ticks", run.deliveryTicks.total()},
      {"delivery_p99_ticks", histogramPercentile(run.deliveryTicks, 99.0),
       "ticks", run.deliveryTicks.total()},
      {"publishes_per_s", z.publishesPerBatch / publishBatch, "1/s",
       run.publishBatchSeconds.size()},
      {"queries_per_s", z.queriesPerBatch / queryBatch, "1/s",
       run.queryBatchSeconds.size()},
      {"ringcast_last_hop", run.lastHopMean, "hops", z.publishesPerBatch},
      {"search_hit_pct", run.search.hitRatePercent(), "%",
       run.search.queries},
  };
}

std::vector<Metric> perLayer(const Run& run, const Trace& trace,
                             const Sizes& z) {
  const auto spans = trace.byName();
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.totalSeconds;
  };
  const auto count = [&](const char* name) -> std::size_t {
    const auto it = spans.find(name);
    return it == spans.end() ? 0 : it->second.count;
  };
  const auto pct = [&](const char* name, double p) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : percentile(it->second.durations, p);
  };
  const auto selfOf = [&](const std::string& layer) {
    double seconds = 0.0;
    for (const auto& [name, stats] : spans)
      if (name.rfind(layer + ".", 0) == 0) seconds += stats.selfSeconds;
    return seconds;
  };
  const double repeats = static_cast<double>(run.setupSeconds.size());
  const double cycles = static_cast<double>(run.cycleSeconds.size());
  const double liveCycles = static_cast<double>(run.liveCycleSeconds.size());
  const double queryBatches = static_cast<double>(run.queryBatchSeconds.size());
  const auto& st = run.steady;
  const std::size_t ns = run.setupSeconds.size();
  return {
      {"analysis.build_s", total("analysis.build") / repeats, "s", ns},
      {"analysis.warmup_s", total("analysis.warmup") / repeats, "s", ns},
      {"sim.cycle_ms.p50", 1e3 * pct("sim.cycle", 50.0), "ms",
       count("sim.cycle")},
      {"sim.cycle_ms.p90", 1e3 * pct("sim.cycle", 90.0), "ms",
       count("sim.cycle")},
      {"sim.msgs_per_cycle", trace.counter("sim.msgs") / cycles, "count",
       run.cycleSeconds.size()},
      {"sim.allocs_per_cycle", trace.counter("sim.allocs") / cycles, "count",
       run.cycleSeconds.size()},
      {"sim.in_flight", trace.counter("sim.in_flight_sum") / cycles, "count",
       run.cycleSeconds.size()},
      {"gossip.shuffles_per_cycle", trace.counter("gossip.shuffles") / cycles,
       "count", run.cycleSeconds.size()},
      {"gossip.ring_converged_pct", run.ringConvergedPercent, "%",
       z.gossipNodes},
      {"cast.snapshot_ms", 1e3 * pct("cast.snapshot", 50.0), "ms",
       count("cast.snapshot")},
      {"cast.publish_ms", 1e3 * pct("cast.publish", 50.0), "ms",
       count("cast.publish")},
      {"cast.msgs_per_publish",
       static_cast<double>(run.publishMessages) / z.publishesPerBatch, "count",
       z.publishesPerBatch},
      {"cast.redundant_pct",
       100.0 * static_cast<double>(run.publishRedundant) /
           static_cast<double>(std::max<std::uint64_t>(run.publishMessages, 1)),
       "%", z.publishesPerBatch},
      {"cast.miss_pct", run.missPercent, "%", z.publishesPerBatch},
      {"live.cycle_ms.p50", 1e3 * pct("live.cycle", 50.0), "ms",
       count("live.cycle")},
      {"live.cycle_ms.p90", 1e3 * pct("live.cycle", 90.0), "ms",
       count("live.cycle")},
      {"live.in_flight", trace.counter("live.in_flight_sum") / liveCycles,
       "count", count("live.cycle")},
      {"live.first_deliveries", static_cast<double>(st.firstDeliveries),
       "count", 1},
      {"live.redundancy_ratio", st.redundancyRatio(), "ratio", 1},
      {"live.pull_share_pct",
       100.0 * static_cast<double>(st.pullDeliveries) /
           static_cast<double>(std::max<std::uint64_t>(st.firstDeliveries, 1)),
       "%", 1},
      {"live.peak_tracked", static_cast<double>(st.peakTracked), "count", 1},
      {"live.aged_out", static_cast<double>(st.retiredAgedOut), "count", 1},
      {"live.floor_ticks", static_cast<double>(run.floorTicks), "ticks", 1},
      {"search.session_ms", 1e3 * total("search.session") / queryBatches,
       "ms", count("search.session")},
      {"search.query_us",
       1e6 * total("search.query") / (queryBatches * z.queriesPerBatch), "us",
       count("search.query")},
      {"search.msgs_per_query", run.search.messagesPerQuery(), "count",
       run.search.queries},
      {"search.cache_resolved_pct", 100.0 * run.search.cacheHitFraction(), "%",
       run.search.resolved},
      {"self_s.analysis", selfOf("analysis"), "s", count("analysis.build")},
      {"self_s.sim", selfOf("sim"), "s", count("sim.cycle")},
      {"self_s.cast", selfOf("cast"), "s", count("cast.publish")},
      {"self_s.search", selfOf("search"), "s", count("search.query")},
      {"self_s.live", selfOf("live"), "s", count("live.cycle")},
      {"self_s.bench", selfOf("bench"), "s", count("bench.setup")},
  };
}

void printTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n  %-28s %16s  %-6s %s\n", title, "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6g  %-6s %zu\n", m.name.c_str(), m.value, m.unit,
                m.samples);
}

void printSpans(const Trace& trace) {
  std::printf("spans\n  %-22s %8s %12s %12s %12s\n", "name", "count",
              "total_s", "self_s", "p50_ms");
  for (const auto& [name, stats] : trace.byName())
    std::printf("  %-22s %8llu %12.4f %12.4f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(stats.count),
                stats.totalSeconds, stats.selfSeconds,
                1e3 * percentile(stats.durations, 50.0));
}

Json metricsJson(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics)
    out.set(m.name, Json::object().set("value", m.value).set("unit", m.unit));
  return out;
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.emplace_back(w.name);
  return names;
}

int runBenchmark(const Workload& w, const Sizes& z, std::uint64_t seed,
                 double seconds, bool traced) {
  Trace trace(traced);
  Checks checks;
  Run run;
  std::printf("workload %s  seed %llu  engine workers %u  gossip %u nodes "
              "(%s)  live %u nodes (%s)\n",
              w.name, static_cast<unsigned long long>(seed), kEngineWorkers,
              z.gossipNodes, w.gossipTiming.modeName(), z.liveNodes,
              w.liveTiming.modeName());

  // The gossip population at one engine worker, for the bit-identity
  // check below; built first so it never adds to the run's peak RSS.
  const std::uint64_t singleWorker = [&] {
    Trace off(false);
    auto single = buildGossip(w, z, seed, 1, off);
    single.warmup();
    return overlayFingerprint(single);
  }();

  // Set-up, repeated: the median is setup_s, and every repeat must
  // rebuild the same overlays.
  Populations p;
  std::optional<std::uint64_t> setupFingerprint;
  for (std::uint32_t r = 0; r < z.setupRepeats; ++r) {
    p = Populations{};
    const auto start = Clock::now();
    setUp(p, w, z, seed, trace);
    run.setupSeconds.push_back(secondsSince(start));
    if (!setupFingerprint) setupFingerprint = p.fingerprint;
    checks.expect(p.fingerprint == *setupFingerprint,
                  "set-up repeat " + std::to_string(r) +
                      " rebuilt the same overlays");
  }
  run.attempted += z.setupRepeats;
  run.fingerprint.add(*setupFingerprint);
  run.ringConvergedPercent =
      100.0 *
      analysis::ringConvergence(p.gossip->network(), p.gossip->vicinity())
          .bothAccuracy;
  checks.expect(singleWorker == p.gossipFingerprint,
                "overlay at 1 worker matches " +
                    std::to_string(kEngineWorkers) +
                    " workers at the end of warm-up");

  measure(p, z, seed, seconds, trace, run, checks);

  const auto e2e = endToEnd(run, z);
  for (const Metric& m : e2e)
    checks.expect(std::isfinite(m.value) && m.value > 0.0,
                  m.name + " is positive");

  std::printf("fingerprint %s\n", hex(run.fingerprint.value()).c_str());
  std::printf("live delivery floor: ceil(log2 %u) x %u ticks/cycle = %llu "
              "ticks (p50 %.0f, p99 %.0f)\n",
              z.liveNodes, p.live->timing().ticksPerCycle,
              static_cast<unsigned long long>(run.floorTicks),
              histogramPercentile(run.deliveryTicks, 50.0),
              histogramPercentile(run.deliveryTicks, 99.0));
  std::printf("operations: %llu attempted, %llu failed (aged out %llu, "
              "incomplete after drain %llu, unresolved queries %llu)\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.steady.retiredAgedOut),
              static_cast<unsigned long long>(run.incomplete),
              static_cast<unsigned long long>(
                  run.failed - run.steady.retiredAgedOut - run.incomplete));
  printTable("end-to-end", e2e);

  Json result = Json::object()
                    .set("correct", checks.ok)
                    .set("attempted", run.attempted)
                    .set("failed", run.failed)
                    .set("fingerprint", hex(run.fingerprint.value()))
                    .set("end_to_end", metricsJson(e2e));
  if (traced) {
    const auto layers = perLayer(run, trace, z);
    printTable("per-layer (traced run)", layers);
    printSpans(trace);
    result.set("per_layer", metricsJson(layers));
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser parser(
      "vs07 benchmark: one workload, one seed; last stdout line is JSON");
  parser.option("workload", "lockstep | windowed")
      .option("seed", "input seed (default 1)")
      .option("seconds", "measured seconds (default 25)")
      .option("trace", "1 = record spans and report per-layer metrics")
      .option("scale", "full | tiny (tiny is for the benchmark's tests)")
      .option("list", "print workload names and exit", false);
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  try {
    if (args->has("list")) {
      for (const auto& name : workloadNames()) std::printf("%s\n", name.c_str());
      return 0;
    }
    if (!args->has("workload"))
      throw std::invalid_argument("--workload is required");
    const Workload& w =
        workloads()[args->getChoice("workload", workloadNames(), 0)];
    const Sizes& z =
        args->getChoice("scale", {"full", "tiny"}, 0) == 0 ? kFullSizes
                                                           : kTinySizes;
    return runBenchmark(w, z, args->getUint("seed", 1),
                        args->getDouble("seconds", 25.0),
                        args->getUint("trace", 0) != 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vs07_perfbench: %s\n", e.what());
    return 2;
  }
}
