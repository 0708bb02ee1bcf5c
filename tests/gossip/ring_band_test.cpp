// RingBand — the VICINITY ranking kernel — against the selection it
// replaced, kept here as the reference: a linear-scan dedup into a pool,
// then a full sort by (clockwise distance, node id) keeping both ends.
// The kernel must reproduce it bit for bit (entries, order, ages), since
// every gossip overlay, golden record and benchmark fingerprint is built
// from its output.
#include "gossip/ring_band.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "gossip/view.hpp"

namespace vs07::gossip {
namespace {

using Pool = std::vector<PeerDescriptor>;

// -- the reference ------------------------------------------------------

void referenceInsert(Pool& pool, const PeerDescriptor& entry) {
  for (auto& existing : pool) {
    if (existing.node == entry.node) {
      if (entry.age < existing.age) existing = entry;
      return;
    }
  }
  pool.push_back(entry);
}

void referenceSelect(SequenceId anchor, Pool& pool, std::size_t budget) {
  if (pool.size() <= budget) return;
  std::sort(pool.begin(), pool.end(),
            [anchor](const PeerDescriptor& a, const PeerDescriptor& b) {
              const auto da = clockwiseDistance(anchor, a.profile);
              const auto db = clockwiseDistance(anchor, b.profile);
              if (da != db) return da < db;
              return a.node < b.node;
            });
  const std::size_t succCount = (budget + 1) / 2;
  const std::size_t predCount = budget - succCount;
  for (std::size_t i = 0; i < predCount; ++i)
    pool[succCount + i] = pool[pool.size() - predCount + i];
  pool.resize(budget);
}

/// One selection input: a duplicate-free first source (a View's
/// entries) and a second source with duplicates (an offer, a CYCLON view
/// in another profile space, or a decoded wire list).
struct Input {
  Pool unique;
  Pool extra;
  SequenceId anchor = 0;
  std::size_t budget = 0;
};

Pool referencePool(const Input& in) {
  Pool pool;
  for (const auto& e : in.unique) referenceInsert(pool, e);
  for (const auto& e : in.extra) referenceInsert(pool, e);
  return pool;
}

Pool reference(const Input& in) {
  Pool pool = referencePool(in);
  referenceSelect(in.anchor, pool, in.budget);
  return pool;
}

Pool kernel(RingBand& band, const Input& in) {
  band.reset(in.unique.size() + in.extra.size());
  for (const auto& e : in.unique) band.add(e);
  for (const auto& e : in.extra) band.add(e);
  band.select(in.anchor, in.budget);
  return {band.entries().begin(), band.entries().end()};
}

// -- generated inputs ---------------------------------------------------

/// Random pools shaped to hit every rule: node ids drawn from a small
/// space (duplicates within and across sources), ages from a narrow range
/// (equal-age duplicates), profiles often drawn from a handful of values
/// (equal-distance ties, including an anchor equal to a profile), and
/// budgets from 0 up past View::kInlineCapacity, under and over the pool.
Input randomInput(Rng& rng, std::size_t uniqueMax, std::size_t extraMax,
                  std::uint32_t nodeSpace) {
  std::vector<SequenceId> sharedProfiles;
  for (int i = 0; i < 4; ++i) sharedProfiles.push_back(rng());
  const bool tiedProfiles = rng.chance(0.3);
  const auto profile = [&]() -> SequenceId {
    if (tiedProfiles && rng.chance(0.5))
      return sharedProfiles[rng.below(sharedProfiles.size())];
    return rng();
  };
  const auto age = [&rng] { return static_cast<std::uint32_t>(rng.below(4)); };

  Input in;
  const std::size_t uniqueCount = rng.below(uniqueMax + 1);
  std::vector<NodeId> ids(nodeSpace);
  for (NodeId i = 0; i < nodeSpace; ++i) ids[i] = i;
  for (std::size_t i = 0; i < uniqueCount && i < ids.size(); ++i) {
    std::swap(ids[i], ids[i + rng.below(ids.size() - i)]);
    in.unique.push_back({ids[i], age(), profile()});
  }
  const std::size_t extraCount = rng.below(extraMax + 1);
  for (std::size_t i = 0; i < extraCount; ++i)
    in.extra.push_back({static_cast<NodeId>(rng.below(nodeSpace)), age(),
                        profile()});
  in.anchor = rng.chance(0.2) ? sharedProfiles[0] : rng();
  in.budget = rng.below(2 * View::kInlineCapacity + 4);
  return in;
}

TEST(RingBand, MatchesSortBasedSelectionOnRandomPools) {
  Rng rng(0x52494E47ULL);
  RingBand band;  // one instance across trials: reuse must not leak state
  std::size_t selected = 0;
  std::size_t underBudget = 0;
  for (int trial = 0; trial < 12'000; ++trial) {
    const auto in = randomInput(rng, 24, 48, 64);
    const Pool expected = reference(in);
    ASSERT_EQ(kernel(band, in), expected) << "trial " << trial;
    (referencePool(in).size() > in.budget ? selected : underBudget)++;
  }
  // Both regimes ran many times.
  EXPECT_GT(selected, 3'000u);
  EXPECT_GT(underBudget, 1'500u);
}

TEST(RingBand, MatchesOnExchangeShapedPools) {
  // The paper's parameters: offers pool ~39 candidates into 9, merges
  // ~30 into 20; plus budget 1 and odd/even budgets around them.
  Rng rng(11);
  RingBand band;
  for (int trial = 0; trial < 4'000; ++trial) {
    Input in = randomInput(rng, 20, 20, 2'000);
    in.budget = std::vector<std::size_t>{1, 2, 9, 10, 19, 20, 21, 28}
        [rng.below(8)];
    ASSERT_EQ(kernel(band, in), reference(in)) << "trial " << trial;
  }
}

TEST(RingBand, MatchesOnWireSizedPools) {
  // A decoded wire list of a few thousand entries merged into a view:
  // the index grows past its sizing hint and the band is a sliver.
  Rng rng(12);
  RingBand band;
  for (int trial = 0; trial < 12; ++trial) {
    Input in = randomInput(rng, 20, 4'000, 3'000);
    in.budget = trial % 2 == 0 ? 20 : 1 + rng.below(200);
    // Under-hinted reset: the kernel must grow the index itself.
    band.reset(0);
    for (const auto& e : in.unique) band.add(e);
    for (const auto& e : in.extra) band.add(e);
    band.select(in.anchor, in.budget);
    ASSERT_EQ(Pool(band.entries().begin(), band.entries().end()),
              reference(in))
        << "trial " << trial;
  }
}

// -- the rules, one by one ----------------------------------------------

TEST(RingBand, FresherDuplicateWinsInItsFirstSlot) {
  RingBand band;
  band.reset(4);
  band.add({1, 5, 100});
  band.add({2, 3, 200});
  band.add({1, 2, 150});  // fresher: replaces the whole entry, in place
  band.add({2, 3, 999});  // equal age: the first-inserted one stays
  band.add({2, 4, 999});  // staler: ignored
  band.add({3, 0, 300});
  const Pool expected = {{1, 2, 150}, {2, 3, 200}, {3, 0, 300}};
  EXPECT_EQ(Pool(band.entries().begin(), band.entries().end()), expected);
}

TEST(RingBand, AtOrUnderBudgetKeepsInsertionOrder) {
  RingBand band;
  band.reset(3);
  band.add({7, 0, 700});
  band.add({3, 0, 300});
  band.add({5, 0, 500});
  band.select(/*anchor=*/0, 3);
  const Pool expected = {{7, 0, 700}, {3, 0, 300}, {5, 0, 500}};
  EXPECT_EQ(Pool(band.entries().begin(), band.entries().end()), expected);
}

TEST(RingBand, BandIsNearestSuccessorsThenNearestPredecessors) {
  // Anchor 1000. Clockwise distances: 1010 -> 10, 1020 -> 20 (twice,
  // tie broken by node id), 990 -> 2^64-10, 980 -> 2^64-20, 5000 -> 4000.
  RingBand band;
  band.reset(6);
  band.add({6, 0, 980});
  band.add({5, 0, 1020});
  band.add({4, 0, 5000});
  band.add({3, 0, 1020});
  band.add({2, 0, 990});
  band.add({1, 0, 1010});
  band.select(1000, 5);  // 3 successors, 2 predecessors
  const Pool expected = {{1, 0, 1010}, {3, 0, 1020}, {5, 0, 1020},
                         {6, 0, 980},  {2, 0, 990}};
  EXPECT_EQ(Pool(band.entries().begin(), band.entries().end()), expected);

  band.reset(2);
  band.add({1, 0, 1010});
  band.add({2, 0, 990});
  band.select(1000, 0);
  EXPECT_EQ(band.size(), 0u);
}

TEST(RingBand, SteadyStateAllocatesNothing) {
  Rng rng(13);
  RingBand band;
  std::vector<Input> inputs;
  for (int i = 0; i < 64; ++i) {
    Input in = randomInput(rng, 20, 20, 500);
    in.budget = 9;
    inputs.push_back(std::move(in));
  }
  for (const auto& in : inputs) kernel(band, in);  // reach high water
  const AllocScope allocs;
  std::size_t total = 0;
  for (const auto& in : inputs) {
    band.reset(in.unique.size() + in.extra.size());
    for (const auto& e : in.unique) band.add(e);
    for (const auto& e : in.extra) band.add(e);
    band.select(in.anchor, in.budget);
    total += band.size();
  }
  EXPECT_EQ(allocs.allocations(), 0u);
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace vs07::gossip
