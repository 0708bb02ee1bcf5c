// Ring-band candidate selection — the ranking kernel of every VICINITY
// exchange (each exchange runs it four times: two offers, two merges).
//
// A RingBand pools candidate descriptors, deduplicates them by node, and
// reduces the pool to a balanced band around an anchor on the id ring:
// the ⌈b/2⌉ nearest clockwise successors (nearest first), then the ⌊b/2⌋
// nearest counter-clockwise predecessors (farthest of them first — i.e.
// in increasing clockwise distance). Ties in distance break by node id.
//
// The band is the paper's §6 view content — "peers with gradually higher
// and lower sequence IDs" — and, unlike a symmetric nearest-k selection,
// it keeps both ring directions represented even when sequence ids are
// clustered (e.g. the §8 domain-sorted ring, where a node's whole cluster
// is nearer than its true cross-cluster successor).
//
// The exact output contract (entries, order and ages) is that of a full
// sort of the pool by (clockwise distance, node id) keeping both ends,
// with a linear-scan dedup in which the fresher duplicate overwrites the
// first-inserted slot (equal ages keep the first). This implementation
// gets the same bits without the sort or the scan, for a pool of n and a
// budget of b:
//   * each clockwise distance is computed once per selection;
//   * duplicates are found through an open-addressing index over the
//     pool, not a scan (O(1) expected per entry);
//   * one pass keeps the two ends as short sorted runs, so the discarded
//     middle is never ordered (O(n) comparisons plus O(b) moves per
//     entry that enters a run; O(n·b) at worst, linear in n for the
//     view-length budgets VICINITY uses).
// A pool at or under budget is left in insertion order.
//
// All buffers are members and keep their capacity, so a steady-state
// exchange allocates nothing once the pool has reached its high-water
// size. One RingBand serves one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/message.hpp"

namespace vs07::gossip {

class RingBand {
 public:
  RingBand() { reset(0); }

  /// Empties the pool. `expected` is the number of entries about to be
  /// added (a sizing hint for the dedup index; exceeding it is fine).
  void reset(std::size_t expected);

  /// Appends `entry` unless the pool already holds its node, in which
  /// case the pooled slot takes `entry` only if it is strictly fresher
  /// (lower age). The slot keeps its insertion position either way.
  void add(const net::PeerDescriptor& entry) {
    std::size_t i = home(entry.node);
    for (; index_[i] != 0; i = (i + 1) & (index_.size() - 1)) {
      net::PeerDescriptor& pooled = pool_[index_[i] - 1];
      if (pooled.node == entry.node) {
        if (entry.age < pooled.age) pooled = entry;
        return;
      }
    }
    place(i, entry);
  }

  /// Reduces the pool to at most `budget` entries forming the band
  /// around `anchor` (see the file comment). No-op at or under budget.
  /// Ends the filling: reset() before adding again.
  void select(SequenceId anchor, std::size_t budget);

  /// The pool: insertion order before select(), band order after.
  std::span<const net::PeerDescriptor> entries() const noexcept {
    return pool_;
  }
  std::size_t size() const noexcept { return pool_.size(); }

 private:
  /// Selection record: the order key (distance, node) plus the pool slot.
  struct Ranked {
    std::uint64_t distance;
    NodeId node;
    std::uint32_t slot;
  };
  /// Key order of the band: clockwise distance, then node id.
  static bool nearer(const Ranked& a, const Ranked& b) noexcept {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.node < b.node;
  }
  /// Writes `x` into the ascending run [run, run + len], whose slot `len`
  /// is free (or is being vacated), keeping the run ascending.
  static void sinkInto(Ranked* run, std::size_t len, const Ranked& x);

  /// Index slot where `node`'s probe sequence starts (Fibonacci hashing:
  /// the top bits of a multiplicative hash).
  std::size_t home(NodeId node) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ULL) >>
        indexShift_);
  }
  /// Appends `entry` to the pool and records it at free index slot `i`.
  void place(std::size_t i, const net::PeerDescriptor& entry) {
    pool_.push_back(entry);
    index_[i] = static_cast<std::uint32_t>(pool_.size());
    if (2 * pool_.size() > index_.size()) growIndex();
  }
  /// Sizes the (cleared) index for `entries` pooled entries.
  void sizeIndex(std::size_t entries);
  /// Rebuilds the index for the current pool once it passes half full.
  void growIndex();

  std::vector<net::PeerDescriptor> pool_;
  /// Open-addressing index (linear probing; sized at reset() for 1/8
  /// load, grown when a pool outruns its hint past 1/2): pool slot + 1
  /// per index slot, 0 = free.
  std::vector<std::uint32_t> index_;
  std::uint32_t indexShift_ = 64;
  /// select()'s runs: nearest successors, nearest predecessors.
  std::vector<Ranked> near_;
  std::vector<Ranked> far_;
  std::vector<net::PeerDescriptor> band_;
};

}  // namespace vs07::gossip
