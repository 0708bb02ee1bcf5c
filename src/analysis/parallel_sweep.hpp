// ParallelSweep — the experiment runner behind the figure benches, the
// ablations, the examples and the integration tests: fanout sweeps of
// dissemination effectiveness (Figs. 6/9/11), per-hop progress
// aggregation (Figs. 7/10), message-overhead accounting (Fig. 8), and
// lifetime bookkeeping for the churn study (Figs. 12/13).
//
// Each runner has two shapes:
//   * (Scenario, Strategy, ...)      — snapshots the strategy's overlay
//     itself (and, for miss lifetimes, reads the scenario's network and
//     current engine cycle);
//   * (OverlaySnapshot, TargetSelector, ...) — the raw engine, for
//     hand-built overlays (§3 graphs) and non-strategy selectors (flood,
//     band boost). Pass cast::selectorFor(strategy) for a strategy.
//
// A sweep is split into independent (fanout, replication-chunk) cells of
// at most SweepOptions::runsPerCell disseminations each. Every cell seeds
// its own RNG from deriveStreamSeed(seed, fanout, chunk) — a splitmix
// -style derivation of the root seed and the cell's *identity*, never its
// schedule — and accumulates partial sums locally. After all cells finish
// the partials are merged in canonical (fanout, chunk) order. Two
// consequences the determinism tests pin down:
//
//   * results are bit-identical for any thread count, including the
//     default of 1: the cell decomposition, every cell's RNG stream, and
//     the merge order are all independent of how cells are scheduled;
//   * a point's value is independent of the rest of the sweep:
//     sweepEffectiveness(..., {2, 4, 6}, ...)[1] equals the standalone
//     measureEffectiveness(..., 4, ...) at the same seed, because cell
//     seeds depend on the fanout value, not its position.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cast/disseminator.hpp"
#include "cast/selector.hpp"
#include "cast/snapshot.hpp"
#include "cast/strategy.hpp"
#include "common/histogram.hpp"
#include "common/task_pool.hpp"
#include "sim/network.hpp"

namespace vs07::analysis {

class Scenario;

/// Aggregate outcome of `runs` disseminations at one fanout.
struct EffectivenessPoint {
  std::uint32_t fanout = 0;
  std::uint32_t runs = 0;
  /// Mean miss ratio (percent) — Fig. 6(a)/9-left/11-left bars.
  double avgMissPercent = 0.0;
  /// Percentage of runs reaching every alive node — Fig. 6(b)/9-right/
  /// 11-right bars.
  double completePercent = 0.0;
  /// Mean message-overhead split (Fig. 8 stacks).
  double avgMessagesTotal = 0.0;
  double avgVirgin = 0.0;
  double avgRedundant = 0.0;
  double avgToDead = 0.0;
  /// Mean hop at which the last notified node was reached.
  double avgLastHop = 0.0;
  /// All misses summed over runs (numerator for lifetime studies).
  std::uint64_t totalMisses = 0;
};

/// Per-hop dissemination progress aggregated over runs (Figs. 7/10):
/// for each hop, the mean/min/max percentage of nodes not yet reached.
struct ProgressStats {
  std::uint32_t fanout = 0;
  std::uint32_t runs = 0;
  std::vector<double> meanPctRemaining;  ///< index = hop
  std::vector<double> minPctRemaining;
  std::vector<double> maxPctRemaining;
};

/// Runs `runs` disseminations and histograms the lifetimes of the nodes
/// that were *not* notified — Fig. 13. Also returns the effectiveness
/// aggregate so callers get Fig. 11's numbers from the same runs.
struct MissLifetimeStudy {
  EffectivenessPoint effectiveness;
  CountHistogram missedLifetimes;
};

/// Lifetime (in cycles) of every alive node at `nowCycle` — Fig. 12.
CountHistogram lifetimeHistogram(const sim::Network& network,
                                 std::uint64_t nowCycle);

/// Knobs of the runner.
struct SweepOptions {
  /// Worker lanes (including the caller); 0 = all hardware cores.
  std::uint32_t threads = 1;
  /// Replication-chunk size: runs per cell. Part of the canonical cell
  /// decomposition — changing it changes the (deterministic) results,
  /// so it defaults to a fixed constant rather than anything derived
  /// from the machine.
  std::uint32_t runsPerCell = 8;
};

/// The experiment runner. One instance owns a TaskPool and can run any
/// number of sweeps; it is not thread-safe itself (one sweep at a time).
/// Every runner disseminates from uniformly random alive origins and is
/// deterministic in `seed`; `runs` must be positive.
class ParallelSweep {
 public:
  ParallelSweep() : ParallelSweep(SweepOptions{}) {}
  explicit ParallelSweep(SweepOptions options);
  ~ParallelSweep();

  ParallelSweep(const ParallelSweep&) = delete;
  ParallelSweep& operator=(const ParallelSweep&) = delete;

  std::uint32_t threadCount() const noexcept;

  // -- effectiveness (Figs. 6/8/9/11) -----------------------------------

  EffectivenessPoint measureEffectiveness(const cast::OverlaySnapshot& overlay,
                                          const cast::TargetSelector& selector,
                                          std::uint32_t fanout,
                                          std::uint32_t runs,
                                          std::uint64_t seed);
  EffectivenessPoint measureEffectiveness(const Scenario& scenario,
                                          cast::Strategy strategy,
                                          std::uint32_t fanout,
                                          std::uint32_t runs,
                                          std::uint64_t seed);

  /// All fanouts' cells are flattened into one parallel loop, so load
  /// balances across the whole sweep, not per point.
  std::vector<EffectivenessPoint> sweepEffectiveness(
      const cast::OverlaySnapshot& overlay,
      const cast::TargetSelector& selector,
      const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
      std::uint64_t seed);
  std::vector<EffectivenessPoint> sweepEffectiveness(
      const Scenario& scenario, cast::Strategy strategy,
      const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
      std::uint64_t seed);

  // -- per-hop progress (Figs. 7/10) ------------------------------------

  ProgressStats measureProgress(const cast::OverlaySnapshot& overlay,
                                const cast::TargetSelector& selector,
                                std::uint32_t fanout, std::uint32_t runs,
                                std::uint64_t seed);
  ProgressStats measureProgress(const Scenario& scenario,
                                cast::Strategy strategy, std::uint32_t fanout,
                                std::uint32_t runs, std::uint64_t seed);

  // -- miss lifetimes (Fig. 13) -----------------------------------------

  MissLifetimeStudy measureMissLifetimes(const cast::OverlaySnapshot& overlay,
                                         const cast::TargetSelector& selector,
                                         const sim::Network& network,
                                         std::uint64_t nowCycle,
                                         std::uint32_t fanout,
                                         std::uint32_t runs,
                                         std::uint64_t seed);
  /// `nowCycle` is the scenario's current engine cycle.
  MissLifetimeStudy measureMissLifetimes(const Scenario& scenario,
                                         cast::Strategy strategy,
                                         std::uint32_t fanout,
                                         std::uint32_t runs,
                                         std::uint64_t seed);

  /// The pool, for callers with their own embarrassingly-parallel loops
  /// (e.g. Fig. 12's independent churn experiments).
  TaskPool& pool() noexcept;

 private:
  SweepOptions options_;
  std::unique_ptr<TaskPool> pool_;
};

}  // namespace vs07::analysis
