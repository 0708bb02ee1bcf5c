#include "gossip/ring_band.hpp"

#include <algorithm>
#include <bit>

namespace vs07::gossip {

namespace {

/// Index slots per expected entry. A sparse index keeps most probes at
/// their home slot: at an exchange pool's size (~40 entries) the index is
/// a few hundred bytes to clear, and collisions — each one a branch the
/// CPU mispredicts — cost more than that.
constexpr std::size_t kSlotsPerEntry = 8;
constexpr std::size_t kMinIndexSlots = 64;

}  // namespace

void RingBand::sizeIndex(std::size_t entries) {
  const std::size_t slots =
      std::bit_ceil(std::max(kMinIndexSlots, kSlotsPerEntry * entries));
  index_.assign(slots, 0);
  indexShift_ = static_cast<std::uint32_t>(64 - std::countr_zero(slots));
}

void RingBand::reset(std::size_t expected) {
  pool_.clear();
  sizeIndex(expected);
}

void RingBand::growIndex() {
  sizeIndex(pool_.size());
  const std::size_t mask = index_.size() - 1;
  for (std::uint32_t s = 0; s < pool_.size(); ++s) {
    std::size_t i = home(pool_[s].node);
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = s + 1;
  }
}

void RingBand::sinkInto(Ranked* run, std::size_t len, const Ranked& x) {
  std::size_t k = len;
  for (; k > 0 && nearer(x, run[k - 1]); --k) run[k] = run[k - 1];
  run[k] = x;
}

void RingBand::select(SequenceId anchor, std::size_t budget) {
  const std::size_t n = pool_.size();
  if (n <= budget) return;
  const std::size_t succCount = (budget + 1) / 2;
  const std::size_t predCount = budget - succCount;
  // One pass keeps two short ascending runs: `near_`, the succCount
  // nearest so far, and `far_`, the predCount farthest of every entry
  // that did not stay in `near_` (each such entry is offered to `far_`
  // exactly once: when it arrives, or when `near_` pushes it out). Most
  // entries cost two comparisons against the runs' thresholds; only
  // those that enter a run pay for an insertion (O(budget) moves), so a
  // selection is O(n·budget) at worst — linear in a wire-sized pool.
  near_.clear();
  far_.clear();
  for (std::uint32_t s = 0; s < n; ++s) {
    Ranked x{clockwiseDistance(anchor, pool_[s].profile), pool_[s].node, s};
    if (near_.size() < succCount) {
      near_.push_back(x);
      sinkInto(near_.data(), near_.size() - 1, x);
      continue;
    }
    if (succCount > 0 && nearer(x, near_.back())) {
      // x takes its place in `near_`; the old last entry moves on.
      const Ranked out = near_.back();
      sinkInto(near_.data(), succCount - 1, x);
      x = out;
    }
    if (predCount == 0) continue;
    if (far_.size() < predCount) {
      far_.push_back(x);
      sinkInto(far_.data(), far_.size() - 1, x);
    } else if (nearer(far_.front(), x)) {
      // x displaces the nearest of the kept predecessors.
      std::size_t k = 0;
      for (; k + 1 < predCount && nearer(far_[k + 1], x); ++k)
        far_[k] = far_[k + 1];
      far_[k] = x;
    }
  }

  band_.clear();
  for (const Ranked& r : near_) band_.push_back(pool_[r.slot]);
  for (const Ranked& r : far_) band_.push_back(pool_[r.slot]);
  pool_.swap(band_);
}

}  // namespace vs07::gossip
