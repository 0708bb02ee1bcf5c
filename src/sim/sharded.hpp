// Sharded-execution protocol interface (see sim/sharded_engine.hpp).
//
// A ShardedProtocol is the parallel counterpart of sim::CycleProtocol:
// the population is partitioned into shards, each driven by one worker,
// and every callback for node n may touch ONLY
//   * per-node state indexed by n (views_[n], pendingSent_[n], ...),
//   * read-only shared state (Network attributes, protocol params), and
//   * the per-worker resources handed in through ShardContext.
// Cross-node effects flow exclusively through ctx.transport(): sends are
// buffered by the engine and delivered after a barrier, to every
// destination node in canonical (sender, send-sequence) order — so the
// run's results are a pure function of the seed, independent of the
// worker count, the shard layout, and OS scheduling.
//
// Randomness discipline: every callback draws from ctx.rng(), a stream
// derived via deriveStreamSeed(engineSeed, node, perNodeEventIndex) — the
// same derivation discipline analysis::ParallelSweep and
// runtime::NodeProcess use. A node's streams depend only on its own
// (deterministic) event history, never on which thread ran it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"

namespace vs07::sim {

/// Per-worker execution context handed to every sharded callback. All
/// resources are exclusive to the worker for the duration of the
/// callback; scratch buffers are recycled between callbacks (reset/clear
/// before use, exactly like the protocols' instance scratch in the
/// sequential engine).
class ShardContext {
 public:
  ShardContext(std::uint32_t shard, net::Transport& transport)
      : shard_(shard), transport_(&transport) {}

  /// The acting node's RNG stream for this callback (reseeded by the
  /// engine before each step/delivery from the node's event counter).
  Rng& rng() noexcept { return rng_; }

  /// Barrier-buffered sender: messages land at their destination after
  /// the current parallel phase, in canonical order. Same move-only
  /// contract as every net::Transport (the payload is recycled).
  net::Transport& transport() noexcept { return *transport_; }

  /// Message-assembly scratch (one per worker; reset before use).
  net::Message& messageScratch() noexcept { return messageScratch_; }

  /// Id-list scratch (reply bookkeeping and the like).
  std::vector<NodeId>& idScratch() noexcept { return idScratch_; }

  /// Descriptor-list scratch (CYCLON's shuffle samples).
  std::vector<net::PeerDescriptor>& poolScratch() noexcept {
    return poolScratch_;
  }

  /// Which shard this context drives (index per-shard counters with it).
  std::uint32_t shard() const noexcept { return shard_; }

 private:
  friend class ShardedEngine;
  std::uint32_t shard_;
  net::Transport* transport_;
  Rng rng_{0};
  net::Message messageScratch_;
  std::vector<NodeId> idScratch_;
  std::vector<net::PeerDescriptor> poolScratch_;
};

/// A protocol instance that can run under the sharded engine. Implemented
/// by gossip::Cyclon and gossip::MultiRing alongside their sequential
/// CycleProtocol paths.
class ShardedProtocol {
 public:
  virtual ~ShardedProtocol() = default;

  /// Called once when the protocol is registered, with the shard count —
  /// size per-shard counters here.
  virtual void onShardedAttach(std::uint32_t shardCount) = 0;

  /// One active gossip step of `self` (the parallel twin of
  /// CycleProtocol::step). Runs on the worker owning self's shard.
  virtual void shardStep(NodeId self, ShardContext& ctx) = 0;

  /// Delivers one message addressed to `to` if this protocol handles its
  /// (kind, channel); returns whether it was handled. Runs on the worker
  /// owning to's shard.
  virtual bool shardDeliver(NodeId to, const net::Message& msg,
                            ShardContext& ctx) = 0;
};

}  // namespace vs07::sim
