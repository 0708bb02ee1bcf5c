// Micro-benchmarks (google-benchmark) of the protocol operations: CYCLON
// shuffle cycles, VICINITY proximity cycles and its ring-band ranking
// kernel, target selection, overlay snapshotting, and end-to-end
// disseminations. These quantify the cost of the simulator itself —
// useful when scaling experiments up.
//
// Shares the bench-wide CLI surface: --quick restricts the run to the
// cheap benchmarks (for CI smoke), --json PATH writes the BENCH_*.json
// record, and --threads N is accepted for interface parity (each micro
// benchmark is single-threaded by nature). Every other option is passed
// through to google-benchmark.
#include <benchmark/benchmark.h>

#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "bench_common.hpp"
#include "cast/session.hpp"
#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "gossip/ring_band.hpp"
#include "net/codec.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

analysis::Scenario warmScenario(std::uint32_t nodes) {
  return analysis::Scenario::paperStatic(nodes, /*seed=*/7);
}

/// Gossip messages per cycle, counted over a fixed run of cycles ahead
/// of the timed loop: the count then does not depend on the iteration
/// count Google Benchmark picks.
double countedMsgsPerCycle(analysis::Scenario& scenario) {
  constexpr std::uint32_t kCountedCycles = 8;
  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  scenario.runCycles(kCountedCycles);
  return static_cast<double>(scenario.gossipMessagesSent() - sentBefore) /
         kCountedCycles;
}

void BM_GossipCycle(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto scenario = warmScenario(nodes);
  // One settle cycle brings scratch buffers and queues to their steady
  // capacity; the timed loop then measures the zero-allocation regime.
  scenario.runCycles(1);
  const double msgsPerCycle = countedMsgsPerCycle(scenario);
  const std::uint64_t sentBefore = scenario.gossipMessagesSent();
  const vs07::AllocScope allocs;
  for (auto _ : state) scenario.runCycles(1);
  // Snapshot before touching state.counters: the counter map itself
  // allocates and must not pollute the measurement.
  const std::uint64_t allocDelta = allocs.allocations();
  const auto cycles = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * nodes * 2);  // 2 protocols
  state.counters["nodes"] = nodes;
  // The hot-path invariant: steady-state gossip cycles allocate nothing.
  state.counters["allocs_per_cycle"] =
      static_cast<double>(allocDelta) / cycles;
  state.counters["msgs_per_cycle"] = msgsPerCycle;
  state.counters["msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(scenario.gossipMessagesSent() - sentBefore),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GossipCycle)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_ShardedGossipCycle(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  auto scenario = analysis::Scenario::builder()
                      .nodes(nodes)
                      .seed(7)
                      .engineThreads(threads)
                      .build();
  scenario.runCycles(1);
  const double msgsPerCycle = countedMsgsPerCycle(scenario);
  const vs07::AllocScope allocs;
  for (auto _ : state) scenario.runCycles(1);
  const std::uint64_t allocDelta = allocs.allocations();
  const auto cycles = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * nodes * 2);
  state.counters["nodes"] = nodes;
  state.counters["engine_threads"] = threads;
  // The sharded engine inherits the hot-path invariant: once outbox
  // buckets and scratch reach steady capacity, a cycle — worklists,
  // steps, barrier exchange, canonical-order delivery — allocates
  // nothing, on any worker thread. main() turns a violation into a
  // nonzero exit (the ctest/CI gate).
  state.counters["allocs_per_cycle"] =
      static_cast<double>(allocDelta) / cycles;
  state.counters["msgs_per_cycle"] = msgsPerCycle;
}
BENCHMARK(BM_ShardedGossipCycle)
    ->Args({1'000, 2})
    ->Args({10'000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_ShardedGossipCycleLatency(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  auto scenario = analysis::Scenario::builder()
                      .nodes(nodes)
                      .seed(7)
                      .engineThreads(threads)
                      .timing(sim::TimingConfig::jitteredLatency(
                          sim::LatencyModel::uniform(1, 4)))
                      .build();
  // The windowed schedule keeps latency-delayed traffic in per-shard
  // stores across cycles; a few settle cycles let the stores and due
  // queues reach their steady capacity before the timed loop.
  scenario.runCycles(3);
  const double msgsPerCycle = countedMsgsPerCycle(scenario);
  const auto storedInFlight =
      static_cast<double>(scenario.shardedEngine()->storedInFlight());
  const vs07::AllocScope allocs;
  for (auto _ : state) scenario.runCycles(1);
  const std::uint64_t allocDelta = allocs.allocations();
  const auto cycles = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * nodes * 2);
  state.counters["nodes"] = nodes;
  state.counters["engine_threads"] = threads;
  // Same invariant as BM_ShardedGossipCycle, now for the windowed
  // (conservative-lookahead) schedule: window scans, per-shard due
  // queues, message-store check-in/out, and canonical-order delivery
  // all run allocation-free once warm. The name prefix keeps this
  // benchmark under main()'s zero-allocation gate.
  state.counters["allocs_per_cycle"] =
      static_cast<double>(allocDelta) / cycles;
  state.counters["msgs_per_cycle"] = msgsPerCycle;
  state.counters["stored_in_flight"] = storedInFlight;
}
BENCHMARK(BM_ShardedGossipCycleLatency)
    ->Args({1'000, 2})
    ->Args({10'000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_RingCastDissemination(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto fanout = static_cast<std::uint32_t>(state.range(1));
  auto scenario = warmScenario(nodes);
  auto session = scenario.snapshotSession(
      {.strategy = Strategy::kRingCast, .fanout = fanout, .seed = 3});
  for (auto _ : state) {
    const auto report = session.publishFromRandom();
    benchmark::DoNotOptimize(report.notified);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.counters["fanout"] = fanout;
}
BENCHMARK(BM_RingCastDissemination)
    ->Args({10'000, 2})
    ->Args({10'000, 5})
    ->Args({10'000, 10})
    ->Unit(benchmark::kMillisecond);

void BM_RandCastDissemination(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto scenario = warmScenario(nodes);
  auto session = scenario.snapshotSession(
      {.strategy = Strategy::kRandCast, .fanout = 5, .seed = 4});
  for (auto _ : state) {
    const auto report = session.publishFromRandom();
    benchmark::DoNotOptimize(report.notified);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_RandCastDissemination)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_SnapshotBuild(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  auto scenario = warmScenario(nodes);
  for (auto _ : state) {
    const auto snapshot = scenario.snapshot(Strategy::kRingCast);
    benchmark::DoNotOptimize(snapshot.aliveCount());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_SnapshotBuild)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_TargetSelection(benchmark::State& state) {
  auto scenario = warmScenario(1'000);
  const auto snapshot = scenario.snapshot(Strategy::kRingCast);
  const auto& selector = cast::selectorFor(Strategy::kRingCast);
  Rng rng(5);
  std::vector<NodeId> targets;
  const auto& ids = snapshot.aliveIds();
  for (auto _ : state) {
    selector.selectTargets(snapshot, ids[rng.below(ids.size())], kNoNode, 5,
                           rng, targets);
    benchmark::DoNotOptimize(targets.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TargetSelection);

/// One VICINITY selection's input: a duplicate-free first source (a
/// view), a second source that may repeat it, the anchor and the budget.
struct BandInput {
  std::vector<net::PeerDescriptor> unique;
  std::vector<net::PeerDescriptor> extra;
  SequenceId anchor = 0;
  std::size_t budget = 0;
};

/// Selections shaped like VICINITY's two, taken from a warmed overlay.
/// An offer pools the initiator's VICINITY and CYCLON views (~39
/// candidates) into exchangeLength - 1 = 9 for a partner; a merge pools
/// the partner's view and that offer (~30) into viewLength = 20.
const std::vector<BandInput>& ringBandInputs(bool merge) {
  static const auto shapes = [] {
    const auto scenario = warmScenario(1'000);
    const auto& vicinity = scenario.vicinity();
    const auto& params = vicinity.params();
    const auto& ids = scenario.network().aliveIds();
    Rng rng(8);
    gossip::RingBand band;
    std::array<std::vector<BandInput>, 2> out;
    for (int i = 0; i < 1'024; ++i) {
      const NodeId self = ids[rng.below(ids.size())];
      const auto& own = vicinity.view(self);
      const auto& random = scenario.cyclon().view(self);
      // Partner choice as in Vicinity::step: own view or random layer.
      const NodeId target = rng.chance(0.5)
                                ? own.at(rng.below(own.size())).node
                                : random.at(rng.below(random.size())).node;
      BandInput offer{{}, {}, vicinity.profileOf(target),
                      params.exchangeLength - 1};
      for (const auto& e : own.entries())
        if (e.node != target) offer.unique.push_back(e);
      for (const auto& e : random.entries())
        if (e.node != target)
          offer.extra.push_back({e.node, e.age, vicinity.profileOf(e.node)});

      BandInput merge{{}, {}, vicinity.profileOf(target), params.viewLength};
      const auto& partner = vicinity.view(target).entries();
      merge.unique.assign(partner.begin(), partner.end());
      band.reset(offer.unique.size() + offer.extra.size());
      for (const auto& e : offer.unique) band.add(e);
      for (const auto& e : offer.extra) band.add(e);
      band.select(offer.anchor, offer.budget);
      for (const auto& e : band.entries())
        if (e.node != target) merge.extra.push_back(e);
      merge.extra.push_back({self, 0, vicinity.profileOf(self)});

      out[0].push_back(std::move(offer));
      out[1].push_back(std::move(merge));
    }
    return out;
  }();
  return shapes[merge ? 1 : 0];
}

void BM_RingBandSelect(benchmark::State& state) {
  const auto& inputs = ringBandInputs(state.range(0) == 1);
  gossip::RingBand band;
  const auto select = [&band](const BandInput& in) {
    band.reset(in.unique.size() + in.extra.size());
    for (const auto& e : in.unique) band.add(e);
    for (const auto& e : in.extra) band.add(e);
    band.select(in.anchor, in.budget);
    benchmark::DoNotOptimize(band.entries().data());
    benchmark::ClobberMemory();
  };
  // One pass brings the kernel's buffers to their high water; the timed
  // loop then measures the allocation-free regime.
  for (const auto& in : inputs) select(in);
  std::size_t next = 0;
  const vs07::AllocScope allocs;
  for (auto _ : state) {
    select(inputs[next]);
    next = next + 1 == inputs.size() ? 0 : next + 1;
  }
  const std::uint64_t allocDelta = allocs.allocations();
  double pooled = 0;
  for (const auto& in : inputs) pooled += in.unique.size() + in.extra.size();
  state.SetItemsProcessed(state.iterations());
  state.counters["candidates"] = pooled / static_cast<double>(inputs.size());
  state.counters["budget"] = static_cast<double>(inputs.front().budget);
  // A selection runs four times per exchange: it must not allocate.
  state.counters["allocs_per_call"] =
      static_cast<double>(allocDelta) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RingBandSelect)->ArgName("merge")->Arg(0)->Arg(1);

void BM_MessageCodec(benchmark::State& state) {
  net::Message msg;
  msg.kind = net::MessageKind::CyclonRequest;
  msg.from = 17;
  Rng rng(6);
  for (int i = 0; i < 8; ++i)
    msg.entries.push_back({static_cast<NodeId>(rng()),
                           static_cast<std::uint32_t>(rng.below(100)),
                           rng()});
  for (auto _ : state) {
    const auto bytes = net::encode(msg);
    const auto decoded = net::decode(bytes);
    benchmark::DoNotOptimize(decoded.entries.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageCodec);

/// Console reporter that also captures every run for the JSON record.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double realTime = 0.0;
    double cpuTime = 0.0;
    std::string timeUnit;
    std::int64_t iterations = 0;
    benchmark::UserCounters counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      Captured captured{run.benchmark_name(), run.GetAdjustedRealTime(),
                        run.GetAdjustedCPUTime(),
                        benchmark::GetTimeUnitString(run.time_unit),
                        run.iterations, run.counters};
      captured_.push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

[[noreturn]] void badValue(const char* what, const std::string& value) {
  std::fprintf(stderr, "bad %s: '%s'\n", what, value.c_str());
  std::exit(2);
}

std::uint32_t parseThreads(const std::string& value) {
  std::uint32_t threads = 0;
  const char* begin = value.c_str();
  const char* end = begin + value.size();
  const auto result = std::from_chars(begin, end, threads);
  if (result.ec != std::errc() || result.ptr != end || threads == 0)
    badValue("positive integer for --threads", value);
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  std::uint32_t threads = vs07::TaskPool::defaultThreads();
  bool quick = false;

  // Strip the shared bench options; everything else goes to
  // google-benchmark untouched.
  std::vector<std::string> passthroughStore{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto valueOf = [&](const std::string& flag) -> std::string {
      if (arg.size() > flag.size() && arg.compare(0, flag.size() + 1,
                                                  flag + "=") == 0)
        return arg.substr(flag.size() + 1);
      if (i + 1 >= argc) badValue(("value for " + flag).c_str(), "<missing>");
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      jsonPath = valueOf("--json");
    } else if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      threads = parseThreads(valueOf("--threads"));
    } else {
      passthroughStore.push_back(arg);
    }
  }
  if (quick)
    // The 10k-node scenarios take minutes to warm up; CI smoke exercises
    // the cheap benchmarks plus the 1k-node gossip cycles (sequential,
    // sharded lockstep, and sharded windowed-latency), whose
    // allocs_per_cycle counters guard the zero-allocation hot path.
    passthroughStore.push_back(
        "--benchmark_filter=BM_(MessageCodec|TargetSelection|RingBandSelect)"
        "|BM_GossipCycle/1000$|BM_ShardedGossipCycle(Latency)?/1000/2$");

  std::vector<char*> passthrough;
  for (auto& arg : passthroughStore)
    passthrough.push_back(arg.data());
  int passthroughArgc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&passthroughArgc, passthrough.data());

  // Scale metadata: nodes/runs are per-benchmark here (each BENCHMARK
  // sets its own Args), so the shared record carries 0 = not applicable
  // and the per-point data carries the real numbers. Seeds are fixed
  // per benchmark (see warmScenario etc.), so the root seed is 0 too.
  vs07::bench::Scale scale;
  scale.quick = quick;
  scale.threads = threads;
  scale.jsonPath = jsonPath;
  vs07::bench::JsonReport report("micro_protocols", scale);

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Times, iteration counts and rate counters (per second of measured
  // time) depend on the machine: they go to host.series.microbenchmarks,
  // one point per series point.
  using vs07::Json;
  Json points = Json::array();
  Json hostPoints = Json::array();
  for (const auto& run : reporter.captured()) {
    Json counters = Json::object();
    Json rates = Json::object();
    for (const auto& [name, counter] : run.counters)
      (counter.flags & benchmark::Counter::kIsRate ? rates : counters)
          .set(name, counter.value);
    points.push(Json::object()
                    .set("name", run.name)
                    .set("time_unit", run.timeUnit)
                    .set("counters", std::move(counters)));
    hostPoints.push(Json::object()
                        .set("name", run.name)
                        .set("real_time", run.realTime)
                        .set("cpu_time", run.cpuTime)
                        .set("iterations", run.iterations)
                        .set("rates", std::move(rates)));
  }
  report.addSeries(Json::object()
                       .set("label", "microbenchmarks")
                       .set("kind", "micro")
                       .set("points", std::move(points)));
  report.addHostSeries("microbenchmarks",
                       Json::object().set("points", std::move(hostPoints)));
  report.write(scale);
  benchmark::Shutdown();

  // The zero-allocation assertion for the sharded engine and the
  // ring-band kernel it runs four times per exchange: any steady-state
  // allocation on any worker thread fails the whole bench run.
  bool allocFree = true;
  for (const auto& run : reporter.captured()) {
    const bool sharded = run.name.rfind("BM_ShardedGossipCycle", 0) == 0;
    const bool kernel = run.name.rfind("BM_RingBandSelect", 0) == 0;
    if (!sharded && !kernel) continue;
    const char* counter = sharded ? "allocs_per_cycle" : "allocs_per_call";
    const auto it = run.counters.find(counter);
    if (it != run.counters.end() && it->second.value != 0.0) {
      std::fprintf(stderr,
                   "FAIL: %s: %s = %.2f in steady state (must be "
                   "allocation-free)\n",
                   run.name.c_str(), counter, it->second.value);
      allocFree = false;
    }
  }
  return allocFree ? 0 : 1;
}
