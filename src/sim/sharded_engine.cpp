#include "sim/sharded_engine.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace vs07::sim {

namespace {
/// Validates the worker count before any member (notably the TaskPool,
/// whose 0 means "hardware default") is constructed from it.
std::uint32_t checkedThreads(std::uint32_t threads) {
  VS07_EXPECT(threads >= 1);
  return threads;
}

/// Validates the timing configuration up front: the lockstep CycleSync
/// schedule has no tick axis to delay messages along, so a latency model
/// requires jittered timing (where the windowed schedule handles it).
TimingConfig checkedTiming(TimingConfig timing) {
  VS07_EXPECT(timing.ticksPerCycle >= 1);
  VS07_EXPECT((timing.mode == TimingMode::kJitteredPeriodic ||
               timing.latency.kind == LatencyModel::Kind::kNone) &&
              "sharded CycleSync is latency-free; use jittered timing "
              "for latency models");
  return timing;
}

/// Canonical delivery order within one tick: by destination, then
/// sender, then the sender's send sequence — independent of which shard
/// buffered what and of heap pop order.
struct CanonicalOrder {
  template <typename Ref>
  bool operator()(const Ref& a, const Ref& b) const noexcept {
    if (a.to != b.to) return a.to < b.to;
    if (a.from != b.from) return a.from < b.from;
    return a.seq < b.seq;
  }
};
}  // namespace

ShardedEngine::ShardedEngine(Network& network, std::uint64_t seed,
                             std::uint32_t threads, TimingConfig timing)
    : network_(network),
      shardCount_(checkedThreads(threads)),
      streamSeed_(seed),
      timing_(checkedTiming(timing)),
      pool_(shardCount_) {
  // senders_ must never reallocate: each worker's ShardContext keeps a
  // Transport* into it.
  senders_.resize(shardCount_);
  // Lockstep cycles bucket the worklist by step batch; the windowed
  // schedule buckets by timer phase offset (one bucket per tick of the
  // cycle span — the per-tick population N*threads/span is what bounds
  // in-flight traffic there, no sub-batching needed).
  const std::size_t worklistBuckets =
      timing_.mode == TimingMode::kCycleSync ? kStepBatches
                                             : timing_.ticksPerCycle;
  workers_.reserve(shardCount_);
  for (std::uint32_t s = 0; s < shardCount_; ++s) {
    senders_[s].engine = this;
    senders_[s].shard = s;
    workers_.emplace_back(s, senders_[s]);
    workers_[s].worklist.resize(worklistBuckets);
    senders_[s].ctx = &workers_[s].ctx;
  }
  outboxes_.resize(static_cast<std::size_t>(shardCount_) * 2 * shardCount_);
  offsetOccupied_.resize(timing_.ticksPerCycle, 0);
  phaseFn_ = [this](std::size_t shard) { runPhase(shard); };
  // Replays existing nodes via onSpawn, sizing the per-node counters.
  network_.addObserver(growth_);
}

ShardedEngine::~ShardedEngine() {
  // The Network is passed by reference and may outlive this engine (e.g.
  // a Scenario rebuilding its engine); leaving growth_ registered would
  // dangle on the next spawn/kill.
  network_.removeObserver(growth_);
}

void ShardedEngine::addProtocol(ShardedProtocol& protocol) {
  protocols_.push_back(&protocol);
  protocol.onShardedAttach(shardCount_);
}

void ShardedEngine::addControl(Control& control) {
  controls_.push_back(&control);
}

void ShardedEngine::run(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) runOneCycle();
}

void ShardedEngine::ensureNode(NodeId node) {
  if (node >= eventCount_.size()) {
    eventCount_.resize(node + 1, 0);
    sendSeq_.resize(node + 1, 0);
  }
}

void ShardedEngine::BarrierSender::send(NodeId to, net::Message&& msg) {
  countSend();
  ShardedEngine& e = *engine;
  VS07_EXPECT(msg.from < e.sendSeq_.size());
  Bucket& bucket = e.outbox(shard, e.parity_, e.shardOf(to));
  if (bucket.count == bucket.slots.size()) {
    // Grow geometrically and pre-warm the new slots' payload buffers.
    // Per-bucket traffic fluctuates cycle to cycle, so its high-water
    // mark keeps creeping for a long time after warm-up; size-by-one
    // growth would turn every creep into a steady-state allocation (a
    // cold slot buffer gets swapped out to a scratch message that must
    // then regrow). With 1.5x slack plus warm buffers, creep lands on
    // pre-warmed slots and steady-state cycles stay allocation-free.
    const std::size_t old = bucket.slots.size();
    const std::size_t grown = std::max<std::size_t>(old + old / 2, 8);
    bucket.slots.resize(grown);
    for (std::size_t i = old; i < grown; ++i) {
      bucket.slots[i].msg.entries.reserve(entryCap);
      bucket.slots[i].msg.ids.reserve(idCap);
    }
  }
  Pending& slot = bucket.slots[bucket.count++];
  // Arrival tick: latency drawn from the acting node's event stream, in
  // send order, interleaved with the protocol's own draws — part of the
  // per-node stream, so independent of thread count. Under CycleSync
  // latency is kNone (ctor contract) and draw() consumes no randomness,
  // keeping the lockstep schedule's draws bit-identical.
  slot.dueTick = e.currentTick_ + e.timing_.latency.draw(ctx->rng());
  // Swap the payload into the recycled slot; the caller's message walks
  // away holding the slot's previous (reset) buffers.
  slot.msg.reset();
  swap(slot.msg, msg);
  // Keep every circulating buffer at the shard's high-water capacity:
  // the buffer handed back to the caller becomes protocol scratch, and a
  // scratch smaller than the largest message type (VICINITY offers pool
  // ~2 view-lengths of candidates before trimming) would reallocate the
  // next time that type fills it. Topping up here moves each buffer's
  // one-time growth to its first circulation instead of an unbounded
  // warm-up tail, which is what keeps steady-state cycles alloc-free.
  entryCap = std::max(entryCap, slot.msg.entries.capacity());
  idCap = std::max(idCap, slot.msg.ids.capacity());
  if (msg.entries.capacity() < entryCap) msg.entries.reserve(entryCap);
  if (msg.ids.capacity() < idCap) msg.ids.reserve(idCap);
  slot.to = to;
  // msg.from is owned by the acting shard (from == the stepping/replying
  // node), so this counter increment is race-free.
  slot.seq = e.sendSeq_[slot.msg.from]++;
}

std::uint64_t ShardedEngine::pendingAt(std::uint32_t parity) const {
  std::uint64_t total = 0;
  for (std::uint32_t w = 0; w < shardCount_; ++w)
    for (std::uint32_t d = 0; d < shardCount_; ++d)
      total += outboxes_[(w * 2 + parity) * shardCount_ + d].count;
  return total;
}

void ShardedEngine::runOneCycle() {
  if (timing_.mode == TimingMode::kCycleSync) {
    runLockstepCycle();
  } else {
    runJitteredCycle();
  }
}

void ShardedEngine::runLockstepCycle() {
  phase_ = Phase::kWorklist;
  pool_.parallelFor(shardCount_, phaseFn_);
  for (std::uint32_t b = 0; b < kStepBatches; ++b) {
    currentBatch_ = b;
    phase_ = Phase::kStep;
    pool_.parallelFor(shardCount_, phaseFn_);
    // Deliver rounds until the batch quiesces (CYCLON/VICINITY: request
    // round, then reply round, then silence).
    while (pendingAt(parity_) > 0) {
      parity_ ^= 1u;  // fresh sends go to the other side
      phase_ = Phase::kDeliver;
      pool_.parallelFor(shardCount_, phaseFn_);
    }
  }
  // Cycle boundary: sequential, like Engine::finishCycle. Membership
  // mutation (churn) is legal only here.
  ++cycle_;
  maintainBuffers();
  for (auto* control : controls_) control->execute(cycle_);
}

void ShardedEngine::runJitteredCycle() {
  const std::uint64_t start = cycleStartTick_;
  const std::uint32_t span = timing_.ticksPerCycle;
  const std::uint64_t end = start + span;
  const std::uint32_t lookahead = timing_.latency.minLatencyTicks();

  phase_ = Phase::kWorklist;
  pool_.parallelFor(shardCount_, phaseFn_);
  // Coordinator aggregate: which phase offsets have timers anywhere.
  // (assign() reuses the vector's capacity — no steady-state allocation.)
  offsetOccupied_.assign(span, 0);
  for (const auto& w : workers_)
    for (std::uint32_t o = 0; o < span; ++o)
      if (!w.worklist[o].empty()) offsetOccupied_[o] = 1;

  std::uint32_t nextOffset = 0;  // earliest timer offset not yet executed
  while (true) {
    while (nextOffset < span && !offsetOccupied_[nextOffset]) ++nextOffset;
    // Next event time across all shards: the earlier of the next
    // occupied timer tick and the earliest stored delivery. Stored
    // entries due past the cycle end stay parked — they carry over to a
    // later cycle's windows (in-flight traffic crosses cycle
    // boundaries; the killed-destination check at delivery handles
    // churn in between).
    std::uint64_t nextTime = nextOffset < span ? start + nextOffset : end;
    for (const auto& w : workers_)
      nextTime = std::min(nextTime, w.dueQueue.nextDueTickOr(end));
    if (nextTime >= end) break;
    // Safe horizon: everything below min(next event) + lookahead can run
    // without coordination — any send inside the window arrives at
    // dueTick >= sendTick + lookahead >= horizon. Lookahead 0 (no
    // latency model: sends are immediate) degrades to a 1-tick window
    // whose same-tick request/reply cascade runs as sub-rounds below.
    const std::uint64_t horizon =
        lookahead == 0 ? nextTime + 1
                       : std::min<std::uint64_t>(nextTime + lookahead, end);
    for (std::uint64_t t = nextTime; t < horizon; ++t) {
      currentTick_ = t;
      phase_ = Phase::kWindowTick;
      pool_.parallelFor(shardCount_, phaseFn_);
      if (lookahead == 0) {
        // Sub-rounds until the tick quiesces: immediate replies land at
        // the same tick, anything a latency draw pushed later was parked
        // in the stores by deliverPhase.
        while (pendingAt(parity_) > 0) {
          parity_ ^= 1u;
          phase_ = Phase::kDeliver;
          pool_.parallelFor(shardCount_, phaseFn_);
        }
      } else {
        // Everything sent this tick is due at or past the horizon: park
        // it in the destination shards' stores before the next tick's
        // horizon query looks at the due queues.
        parity_ ^= 1u;
        phase_ = Phase::kIngest;
        pool_.parallelFor(shardCount_, phaseFn_);
      }
      nextOffset =
          std::max(nextOffset, static_cast<std::uint32_t>(t - start) + 1);
    }
  }
  currentTick_ = end;
  cycleStartTick_ = end;
  // Cycle boundary: sequential, exactly like the lockstep schedule.
  ++cycle_;
  maintainBuffers();
  for (auto* control : controls_) control->execute(cycle_);
}

void ShardedEngine::maintainBuffers() {
  // Trim: release slots of buckets sized by a one-off burst (the star
  // bootstrap funnels every node's first exchanges at one hub, leaving a
  // few buckets provisioned for the whole population). Hysteresis keeps
  // steady-state traffic from ever trimming — and thus from regrowing.
  for (auto& bucket : outboxes_) {
    const bool excess = bucket.slots.size() > 8 &&
                        bucket.slots.size() > 4 * bucket.cyclePeak;
    bucket.excessCycles = excess ? bucket.excessCycles + 1 : 0;
    if (bucket.excessCycles >= kTrimAfterCycles) {
      const std::size_t target =
          std::max<std::size_t>(2 * bucket.cyclePeak, 8);
      // Keep the first `target` slots (their payload buffers are warm);
      // moving them into a right-sized vector releases the rest.
      std::vector<Pending> kept(
          std::make_move_iterator(bucket.slots.begin()),
          std::make_move_iterator(bucket.slots.begin() + target));
      bucket.slots = std::move(kept);
      bucket.excessCycles = 0;
    }
  }
  // Re-warm: slots first used long after creation were pre-warmed when
  // the high-water payload capacity was still immature; a record burst
  // reaching them mid-run would pay a late reallocation. Whenever the
  // cap grows (first cycles only), bring every slot buffer up to it in
  // one sequential sweep — afterwards this is a pair of comparisons.
  std::size_t entryCap = warmedEntryCap_;
  std::size_t idCap = warmedIdCap_;
  for (const auto& sender : senders_) {
    entryCap = std::max(entryCap, sender.entryCap);
    idCap = std::max(idCap, sender.idCap);
  }
  // Windowed-schedule slack: per-tick bucket traffic varies with every
  // cycle's latency draws (delivery ticks move, and replies move with
  // them), so per-bucket records keep creeping long after warm-up — and
  // a record reached mid-cycle grows the bucket then, inside the
  // parallel hot path. Growing here instead, at the sequential cycle
  // boundary, absorbs the creep; the trigger-at-2x / grow-to-3x band
  // (inside trim's 4x ceiling, so growth and trim never oscillate)
  // keeps the boundary growth itself from firing on every +1 creep. A
  // mid-cycle growth would then need the record to jump past 2x, which
  // stationary traffic does not do. The lockstep schedule consumes
  // buckets once per batch, not per tick, and peaks during warm-up — no
  // slack needed there (and none taken: at 10M nodes tripling every
  // bucket is real memory).
  if (timing_.mode != TimingMode::kCycleSync) {
    for (auto& bucket : outboxes_) {
      if (bucket.cyclePeak > 0 && bucket.slots.size() < 2 * bucket.cyclePeak) {
        const std::size_t old = bucket.slots.size();
        bucket.slots.resize(3 * bucket.cyclePeak);
        for (std::size_t i = old; i < bucket.slots.size(); ++i) {
          bucket.slots[i].msg.entries.reserve(entryCap);
          bucket.slots[i].msg.ids.reserve(idCap);
        }
      }
    }
    // In-flight store slack, same reasoning: the record of messages
    // stored simultaneously shifts with arrival peaks, and a cold pool
    // slot minted at a mid-cycle record swaps the sender's warm buffer
    // away (see MessagePool::reserveWarm).
    for (auto& w : workers_) {
      const std::size_t peak = w.store.peakInUse();
      if (peak == 0) continue;
      if (w.store.capacity() < 2 * peak)
        w.store.reserveWarm(3 * peak, entryCap, idCap);
      if (w.dueQueue.capacity() < 2 * peak) w.dueQueue.reserve(3 * peak);
      if (w.dueScratch.capacity() < 2 * peak) w.dueScratch.reserve(3 * peak);
    }
  }
  for (auto& bucket : outboxes_) bucket.cyclePeak = 0;
  if (entryCap == warmedEntryCap_ && idCap == warmedIdCap_) return;
  warmedEntryCap_ = entryCap;
  warmedIdCap_ = idCap;
  for (auto& sender : senders_) {
    // Sync every shard to the global max so growth-time pre-warming of
    // fresh slots (see send()) uses the mature capacity.
    sender.entryCap = entryCap;
    sender.idCap = idCap;
  }
  for (auto& bucket : outboxes_)
    for (auto& slot : bucket.slots) {
      if (slot.msg.entries.capacity() < entryCap)
        slot.msg.entries.reserve(entryCap);
      if (slot.msg.ids.capacity() < idCap) slot.msg.ids.reserve(idCap);
    }
}

void ShardedEngine::runPhase(std::size_t shard) {
  const auto s = static_cast<std::uint32_t>(shard);
  switch (phase_) {
    case Phase::kWorklist:
      buildWorklist(s);
      break;
    case Phase::kStep:
      stepPhase(s);
      break;
    case Phase::kDeliver:
      deliverPhase(s);
      break;
    case Phase::kWindowTick:
      windowTickPhase(s);
      break;
    case Phase::kIngest:
      ingestPhase(s);
      break;
  }
}

void ShardedEngine::buildWorklist(std::uint32_t shard) {
  Worker& w = workers_[shard];
  for (auto& bucket : w.worklist) bucket.clear();
  // aliveIds() order is a pure function of the spawn/kill history (see
  // Network), so every shard's worklist — and with it the node-local
  // execution order — is identical across runs and thread counts.
  if (timing_.mode == TimingMode::kCycleSync) {
    for (const NodeId node : network_.aliveIds())
      if (node % shardCount_ == shard)
        w.worklist[batchOf(node)].push_back(node);
  } else {
    for (const NodeId node : network_.aliveIds())
      if (node % shardCount_ == shard)
        w.worklist[timerPhaseOf(node)].push_back(node);
  }
}

void ShardedEngine::stepPhase(std::uint32_t shard) {
  Worker& w = workers_[shard];
  for (const NodeId node : w.worklist[currentBatch_]) {
    for (auto* protocol : protocols_) {
      seedEventRng(w.ctx, node);
      protocol->shardStep(node, w.ctx);
    }
  }
}

void ShardedEngine::dispatch(Worker& w, NodeId to, const net::Message& msg) {
  if (!network_.isAlive(to)) {
    // Stale view entry pointed at a dead node (or the destination died at
    // a cycle boundary while the message was in flight) — the message
    // vanishes, which is exactly CYCLON's implicit failure detection.
    ++w.droppedDead;
    return;
  }
  seedEventRng(w.ctx, to);
  for (auto* protocol : protocols_)
    if (protocol->shardDeliver(to, msg, w.ctx)) return;
  ++w.droppedUnroutable;
}

void ShardedEngine::deliverPhase(std::uint32_t shard) {
  Worker& w = workers_[shard];
  const std::uint32_t readParity = parity_ ^ 1u;
  // Gather the index of everything addressed to this shard. Reading other
  // workers' read-side buckets is safe: they were last written before the
  // barrier that started this phase, and this phase only writes the
  // opposite parity.
  w.inbox.clear();
  for (std::uint32_t src = 0; src < shardCount_; ++src) {
    Bucket& bucket = outbox(src, readParity, shard);
    for (std::size_t i = 0; i < bucket.count; ++i) {
      Pending& p = bucket.slots[i];
      if (p.dueTick > currentTick_) {
        // A latency draw pushed this arrival past the current tick: park
        // it in the store; a later window's tick delivers it. (checkIn
        // swaps buffers, leaving the outbox slot warm for reuse.) Never
        // taken under lockstep: latency is kNone and every dueTick is 0.
        const NodeId from = p.msg.from;
        const net::MessagePool::Slot slot = w.store.checkIn(p.to, p.msg);
        w.dueQueue.push(p.dueTick, StoreRef{p.to, from, p.seq, slot});
      } else {
        w.inbox.push_back({p.to, p.msg.from, p.seq, src,
                           static_cast<std::uint32_t>(i)});
      }
    }
  }
  // Canonical order: by destination, then sender, then the sender's send
  // sequence — independent of which shard buffered what.
  std::sort(w.inbox.begin(), w.inbox.end(), CanonicalOrder{});
  for (const InRef& ref : w.inbox) {
    const Pending& p = outbox(ref.srcShard, readParity, shard).slots[ref.slot];
    dispatch(w, p.to, p.msg);
  }
  // Reset the consumed read-side buckets (dst-owned here: each bucket is
  // read by exactly one destination shard, and the coordinator's
  // pendingAt() check runs after the barrier). Slots stay allocated.
  for (std::uint32_t src = 0; src < shardCount_; ++src) {
    Bucket& bucket = outbox(src, readParity, shard);
    bucket.cyclePeak = std::max(bucket.cyclePeak, bucket.count);
    bucket.count = 0;
  }
}

void ShardedEngine::windowTickPhase(std::uint32_t shard) {
  Worker& w = workers_[shard];
  // Deliveries before timers within a tick — the same intra-tick
  // priority order as the sequential engine's event queue.
  w.dueScratch.clear();
  w.dueQueue.popDueInto(currentTick_, w.dueScratch);
  std::sort(w.dueScratch.begin(), w.dueScratch.end(), CanonicalOrder{});
  for (const StoreRef& ref : w.dueScratch) {
    dispatch(w, ref.to, w.store.at(ref.slot));
    w.store.release(ref.slot);
  }
  // This tick's node timers. Worklists are rebuilt from aliveIds() each
  // cycle and membership mutates only at cycle boundaries, so every
  // listed node is alive.
  const auto offset = static_cast<std::uint32_t>(currentTick_ -
                                                 cycleStartTick_);
  for (const NodeId node : w.worklist[offset]) {
    for (auto* protocol : protocols_) {
      seedEventRng(w.ctx, node);
      protocol->shardStep(node, w.ctx);
    }
  }
}

void ShardedEngine::ingestPhase(std::uint32_t shard) {
  Worker& w = workers_[shard];
  const std::uint32_t readParity = parity_ ^ 1u;
  for (std::uint32_t src = 0; src < shardCount_; ++src) {
    Bucket& bucket = outbox(src, readParity, shard);
    for (std::size_t i = 0; i < bucket.count; ++i) {
      Pending& p = bucket.slots[i];
      const NodeId from = p.msg.from;
      const net::MessagePool::Slot slot = w.store.checkIn(p.to, p.msg);
      w.dueQueue.push(p.dueTick, StoreRef{p.to, from, p.seq, slot});
    }
    bucket.cyclePeak = std::max(bucket.cyclePeak, bucket.count);
    bucket.count = 0;
  }
}

std::uint64_t ShardedEngine::messagesSent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sender : senders_) total += sender.sent();
  return total;
}

std::uint64_t ShardedEngine::droppedDead() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker.droppedDead;
  return total;
}

std::uint64_t ShardedEngine::droppedUnroutable() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker.droppedUnroutable;
  return total;
}

std::size_t ShardedEngine::storedInFlight() const noexcept {
  std::size_t total = 0;
  for (const auto& worker : workers_) total += worker.dueQueue.size();
  return total;
}

}  // namespace vs07::sim
