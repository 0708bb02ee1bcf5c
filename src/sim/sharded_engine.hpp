// ShardedEngine — intra-run parallelism for the cycle-driven simulation:
// one scenario on all cores, bit-identical for any worker count.
//
// The population is partitioned into P shards (shard = node id mod P, one
// worker per shard, P = --engine-threads). A cycle executes as a sequence
// of parallel phases separated by barriers (common/task_pool):
//
//   step phase     every shard runs the active gossip step of its own
//                  nodes; all sends are buffered, nothing is delivered.
//   deliver round  every shard takes the messages addressed to its own
//                  nodes, sorts them into canonical (destination, sender,
//                  send-seq) order, and runs the protocol handlers;
//                  replies are buffered for the next round.
//   ...            rounds repeat until no messages are in flight (two
//                  rounds for CYCLON/VICINITY: request, reply).
//   controls       sequential, at the cycle boundary — churn, probes and
//                  Network membership mutations happen only here, so the
//                  parallel phases see an immutable population.
//
// Determinism: cross-node effects travel only through buffered messages;
// within a phase every callback touches only the acting node's state (see
// sim/sharded.hpp for the contract). Delivery order per destination node
// is fixed by the canonical sort, send order per sender is fixed by the
// sender's own execution, and every random draw comes from a per-node
// stream derived with deriveStreamSeed(seed, node, eventIndex). None of
// these depend on the shard layout or thread scheduling, so runs with 1,
// 2, or 8 workers produce bit-identical views, records and reports. (The
// semantics intentionally differ from the sequential Engine's CycleSync
// sweep, whose in-cycle exchange interleaving is order-dependent; the
// sharded mode is its own reference, pinned by the determinism suites.)
//
// Memory: a naive barrier would buffer one full round of requests for
// the whole population at once (~GBs at 10M nodes), so each cycle's step
// phase is split into kStepBatches sub-batches — batch membership is a
// pure function of the node id, keeping the schedule partition-
// independent while bounding in-flight traffic to population/kStepBatches
// exchanges. All buffers (outboxes, inbox indexes, worklists, payload
// slots) are recycled, so a steady-state cycle allocates nothing.
//
// Windowed execution (JitteredPeriodic, with or without latency): the
// lockstep schedule above assumes all timers coincide. Under jittered
// timing the engine instead runs conservative windowed PDES over
// per-shard event state — each shard keeps the in-flight messages due at
// its own nodes in a ShardDeliveryQueue, and node timers fire at
// per-node phase offsets within the cycle's ticksPerCycle-tick span. At
// each barrier the coordinator computes the global safe horizon
//
//   horizon = min(next event time across shards) + lookahead,
//
// where the next event time is the earlier of the next occupied timer
// tick and the earliest stored delivery, and the lookahead is the
// minimum cross-shard message latency (LatencyModel::minLatencyTicks()).
// Every tick below the horizon executes without further coordination:
// any message sent at tick t inside the window arrives no earlier than
// t + lookahead >= horizon, so nothing sent in-window can become due
// in-window. Cross-shard sends buffer into the same parity outboxes as
// the lockstep path and merge at the window barrier in canonical
// (to, from, sender-seq) order. Latency-free jittered timing has
// lookahead 0 (sends are immediate) and degrades to 1-tick windows with
// delivery sub-rounds until the tick quiesces — the same request/reply
// cascade as the lockstep deliver rounds, per tick instead of per batch.
// Timer phases are a pure function of the node id (a deriveStreamSeed
// hash), so the event schedule — like everything else — is independent
// of the shard layout and thread count. The jittered sharded schedule is
// its own reference, exactly like the CycleSync sharded schedule: the
// sequential Engine's shared instance RNGs (timer phases in spawn order,
// latency draws in global send order) cannot be reproduced shard-locally,
// so the determinism suites pin sharded-vs-sharded bit-identity across
// thread counts plus macroscopic agreement with the sequential engine.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "net/message.hpp"
#include "net/message_pool.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/sharded.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {

/// The parallel engine. Drives ShardedProtocols over `threads` workers;
/// Controls (churn, probes) run sequentially at cycle boundaries exactly
/// as under sim::Engine.
class ShardedEngine {
 public:
  /// Step phase sub-batches per cycle (bounds in-flight exchange buffers
  /// to population/kStepBatches per round — at 10M nodes the difference
  /// between hundreds of MiB and several GiB of resident outbox slots).
  /// Part of the deterministic schedule: results depend on this constant,
  /// never on the thread count.
  static constexpr std::uint32_t kStepBatches = 64;
  /// Nodes per batch stripe: ids [16k, 16k+16) share a batch, so every
  /// batch spreads over all shards for any worker count up to 16.
  static constexpr std::uint32_t kBatchStripe = 16;
  /// Cycles a bucket must sit below a quarter of its slot high-water
  /// before the excess is released (hysteresis: steady-state bursts must
  /// never trigger trim/regrow churn, only genuine one-offs like the
  /// bootstrap hub funnel do).
  static constexpr std::uint32_t kTrimAfterCycles = 8;

  /// CycleSync timing (lockstep barriered cycles) unless `timing` says
  /// otherwise; JitteredPeriodic (with or without a LatencyModel) runs
  /// the windowed schedule described in the file comment. CycleSync with
  /// a latency model is not supported sharded (the lockstep sweep has no
  /// tick axis to delay along) — use jitteredLatency for delayed traffic.
  ShardedEngine(Network& network, std::uint64_t seed, std::uint32_t threads,
                TimingConfig timing = TimingConfig::cycleSync());
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Registers a protocol; per node, protocols step in registration order.
  void addProtocol(ShardedProtocol& protocol);

  /// Registers a control; runs sequentially in order each cycle boundary.
  void addControl(Control& control);

  /// Runs `cycles` full cycles.
  void run(std::uint64_t cycles);

  /// Runs until `predicate()` is true, checking after each cycle, or until
  /// `maxCycles` have elapsed. Returns cycles actually run.
  template <typename Pred>
  std::uint64_t runUntil(Pred predicate, std::uint64_t maxCycles) {
    std::uint64_t ran = 0;
    while (ran < maxCycles && !predicate()) {
      runOneCycle();
      ++ran;
    }
    return ran;
  }

  /// Completed cycles.
  std::uint64_t cycle() const noexcept { return cycle_; }

  /// Current simulated tick. Advances only under jittered timing (the
  /// lockstep CycleSync schedule has no tick axis).
  std::uint64_t tick() const noexcept { return currentTick_; }

  const TimingConfig& timing() const noexcept { return timing_; }

  /// Worker/shard count (fixed at construction).
  std::uint32_t threadCount() const noexcept { return shardCount_; }

  /// Shard owning `node` under this engine's partition.
  std::uint32_t shardOf(NodeId node) const noexcept {
    return node % shardCount_;
  }
  /// Step sub-batch of `node` (partition-independent).
  static std::uint32_t batchOf(NodeId node) noexcept {
    return (node / kBatchStripe) % kStepBatches;
  }

  /// Gossip messages handed to the barrier senders so far (all shards).
  std::uint64_t messagesSent() const noexcept;
  /// Messages dropped because the destination was dead (CYCLON's implicit
  /// failure detection — mirrors MessageRouter::droppedDead).
  std::uint64_t droppedDead() const noexcept;
  /// Messages no registered protocol claimed (always 0 when wired right).
  std::uint64_t droppedUnroutable() const noexcept;

  /// Latency-delayed messages currently stored across all shard queues
  /// (in flight past the current tick; drains to zero only when traffic
  /// stops). Always 0 under CycleSync or latency-free timing.
  std::size_t storedInFlight() const noexcept;

  /// Timer phase offset of `node` within the cycle span — a pure hash of
  /// the node id (unlike the sequential Engine's spawn-order draws), so
  /// the jittered event schedule is identical for every thread count.
  std::uint32_t timerPhaseOf(NodeId node) const noexcept {
    return static_cast<std::uint32_t>(
        deriveStreamSeed(streamSeed_ ^ 0x7068617365ULL,  // "phase"
                         node) %
        timing_.ticksPerCycle);
  }

  Network& network() noexcept { return network_; }

 private:
  /// One buffered message awaiting its barrier.
  struct Pending {
    NodeId to = kNoNode;
    std::uint32_t seq = 0;  ///< per-sender send counter (canonical tiebreak)
    /// Arrival tick under jittered timing (send tick + latency draw);
    /// unused by the lockstep CycleSync schedule.
    std::uint64_t dueTick = 0;
    net::Message msg;       ///< sender id travels in msg.from
  };
  /// A latency-delayed message parked in a shard's delivery store: the
  /// payload lives in the worker's MessagePool, the due tick in the
  /// worker's ShardDeliveryQueue entry, and (from, seq) ride along for
  /// the canonical per-tick delivery sort.
  struct StoreRef {
    NodeId to;
    NodeId from;
    std::uint32_t seq;
    net::MessagePool::Slot slot;
  };
  /// Slot-recycled outbox bucket (one per (worker, parity, dest shard)).
  struct Bucket {
    std::vector<Pending> slots;
    std::size_t count = 0;
    /// Highest round burst this cycle (tracked when rounds are cleared;
    /// reset at the boundary) — drives the over-provision trim below.
    std::size_t cyclePeak = 0;
    /// Consecutive cycles with slots.size() far above cyclePeak. The
    /// star bootstrap funnels the whole population at one hub, sizing a
    /// few buckets to that one-off burst; once traffic has been steady
    /// and far below the high-water for kTrimAfterCycles cycles, the
    /// excess slots are released (see maintainBuffers).
    std::uint32_t excessCycles = 0;
  };
  /// Sorted-delivery index entry: where a due message lives.
  struct InRef {
    NodeId to;
    NodeId from;
    std::uint32_t seq;
    std::uint32_t srcShard;
    std::uint32_t slot;
  };

  /// Buffers sends into the owning worker's current-parity outbox.
  class BarrierSender final : public net::Transport {
   public:
    void send(NodeId to, net::Message&& msg) override;
    ShardedEngine* engine = nullptr;
    std::uint32_t shard = 0;
    /// The owning worker's context: latency draws come from the acting
    /// node's event stream (ctx->rng()), interleaved with the protocol's
    /// own draws in send order — deterministic for any thread count.
    ShardContext* ctx = nullptr;
    /// High-water payload capacities seen by this shard's sends. Slot
    /// buffers circulate with protocol scratch via swap, so every buffer
    /// is topped up to these the first time it passes through send();
    /// without that, a buffer warmed by a small message type keeps
    /// reallocating whenever it later meets a larger one.
    std::size_t entryCap = 0;
    std::size_t idCap = 0;
   };

  /// Grows per-node bookkeeping when churn spawns fresh ids.
  struct GrowthTracker final : MembershipObserver {
    explicit GrowthTracker(ShardedEngine& engine) : engine(engine) {}
    void onReserve(NodeId count) override {
      engine.eventCount_.reserve(count);
      engine.sendSeq_.reserve(count);
    }
    void onSpawn(NodeId node) override { engine.ensureNode(node); }
    void onKill(NodeId /*node*/) override {}
    ShardedEngine& engine;
  };

  /// Per-shard worker state (exclusive to one parallelFor index).
  struct Worker {
    explicit Worker(std::uint32_t shard, BarrierSender& sender)
        : ctx(shard, sender) {}
    ShardContext ctx;
    /// This cycle's alive nodes of the shard, bucketed by step batch
    /// (CycleSync) or by timer phase offset (jittered).
    std::vector<std::vector<NodeId>> worklist;
    /// Sorted index of messages due at this shard in the current round.
    std::vector<InRef> inbox;
    /// Windowed schedule only: payloads of latency-delayed messages
    /// addressed to this shard, keyed by arrival tick in `dueQueue`.
    net::MessagePool store;
    ShardDeliveryQueue<StoreRef> dueQueue;
    /// Per-tick scratch: refs popped due this tick, canonically sorted.
    std::vector<StoreRef> dueScratch;
    std::uint64_t droppedDead = 0;
    std::uint64_t droppedUnroutable = 0;
  };

  enum class Phase {
    kWorklist,    ///< bucket the shard's alive nodes (both schedules)
    kStep,        ///< lockstep: step one batch
    kDeliver,     ///< deliver one parity round (lockstep, or windowed
                  ///< lookahead-0 same-tick sub-round)
    kWindowTick,  ///< windowed: due deliveries then timers at currentTick_
    kIngest,      ///< windowed: drain read-parity outboxes into stores
  };

  void runOneCycle();
  /// The lockstep CycleSync schedule (unchanged from the pre-windowed
  /// engine; the determinism suites pin its results bit-for-bit).
  void runLockstepCycle();
  /// The windowed jittered schedule (see file comment).
  void runJitteredCycle();
  void runPhase(std::size_t shard);
  void buildWorklist(std::uint32_t shard);
  void stepPhase(std::uint32_t shard);
  /// Delivers read-parity messages due at currentTick_ in canonical
  /// order, parks later-due ones in the store (windowed lookahead 0
  /// only), and resets the consumed buckets.
  void deliverPhase(std::uint32_t shard);
  /// Windowed: deliver everything stored due <= currentTick_ (canonical
  /// order), then fire this tick's node timers.
  void windowTickPhase(std::uint32_t shard);
  /// Hands one message to the first protocol that claims it, counting
  /// it dropped when `to` is dead or no protocol routes it.
  void dispatch(Worker& w, NodeId to, const net::Message& msg);
  /// Windowed, lookahead >= 1: park every read-parity message addressed
  /// to this shard in the store (all are due at or past the horizon).
  void ingestPhase(std::uint32_t shard);
  void ensureNode(NodeId node);
  /// Cycle-boundary buffer upkeep (sequential): re-reserves every slot
  /// buffer when the observed high-water payload capacity grew this
  /// cycle, and trims buckets whose slot count has sat far above the
  /// traffic for kTrimAfterCycles cycles. Both converge within the first
  /// cycles after (re)bootstrap; afterwards this is a cheap scan of the
  /// O(threads^2) bucket headers.
  void maintainBuffers();
  Bucket& outbox(std::uint32_t worker, std::uint32_t parity,
                 std::uint32_t destShard) {
    return outboxes_[(worker * 2 + parity) * shardCount_ + destShard];
  }
  /// Reseeds ctx's RNG to the acting node's next event stream.
  void seedEventRng(ShardContext& ctx, NodeId node) {
    ctx.rng_.reseed(deriveStreamSeed(streamSeed_, node, eventCount_[node]++));
  }
  std::uint64_t pendingAt(std::uint32_t parity) const;

  Network& network_;
  const std::uint32_t shardCount_;
  const std::uint64_t streamSeed_;
  const TimingConfig timing_;
  TaskPool pool_;
  GrowthTracker growth_{*this};
  std::vector<ShardedProtocol*> protocols_;
  std::vector<Control*> controls_;
  std::vector<BarrierSender> senders_;
  std::vector<Worker> workers_;
  /// [worker][parity][destShard] flattened (see outbox()).
  std::vector<Bucket> outboxes_;
  /// Per-node monotone event counter: the `index` of every
  /// deriveStreamSeed(seed, node, index) draw (sized to totalCreated()).
  std::vector<std::uint32_t> eventCount_;
  /// Per-node monotone send counter: the canonical delivery tiebreak.
  std::vector<std::uint32_t> sendSeq_;
  std::uint64_t cycle_ = 0;
  /// Slot-buffer capacities all outbox slots were last warmed to (see
  /// rewarmBuffers); lag the senders' high-water caps only while those
  /// are still growing, i.e. during the first cycles.
  std::size_t warmedEntryCap_ = 0;
  std::size_t warmedIdCap_ = 0;
  std::uint32_t parity_ = 0;       ///< outbox side written by this phase
  std::uint32_t currentBatch_ = 0;
  /// Windowed schedule state (coordinator-written between barriers).
  std::uint64_t currentTick_ = 0;
  std::uint64_t cycleStartTick_ = 0;
  /// Per phase offset: 1 when any shard has timers at that offset this
  /// cycle (coordinator aggregate of the worklists).
  std::vector<std::uint8_t> offsetOccupied_;
  /// Single persistent phase thunk: parallelFor never boxes a fresh
  /// closure, keeping steady-state cycles allocation-free.
  Phase phase_ = Phase::kWorklist;
  std::function<void(std::size_t)> phaseFn_;
};

}  // namespace vs07::sim
