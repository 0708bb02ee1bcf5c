// Pins the overlay that the paper's warm-up builds to recorded constants:
// a hash of every alive node's CYCLON and VICINITY views (node and age,
// in view order), per engine and timing model.
//
// The conformance suites compare runs of the current code with each
// other, so a change that moves every run alike passes them. This suite
// does not: a change to the gossip hot path that claims to keep the
// overlay bit-identical (same entries, same order, same ages) must leave
// every constant below as it is. A deliberate change to how gossip
// consumes randomness or ranks candidates re-records them, and says so.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "common/rng.hpp"
#include "sim/timing.hpp"

namespace vs07::analysis {
namespace {

/// Chained hash of every alive node's views, ring by ring.
std::uint64_t overlayHash(const Scenario& scenario) {
  std::uint64_t h = 0x6F7665726C6179ULL;  // "overlay"
  const auto fold = [&h](std::uint64_t value) { h = mix64(h ^ value); };
  const auto foldView = [&fold](const gossip::View& view) {
    fold(view.size());
    for (const auto& e : view.entries()) {
      fold(e.node);
      fold(e.age);
    }
  };
  for (const NodeId n : scenario.network().aliveIds()) {
    fold(n);
    foldView(scenario.cyclon().view(n));
    for (std::uint32_t r = 0; r < scenario.rings().ringCount(); ++r)
      foldView(scenario.rings().ring(r).view(n));
  }
  return h;
}

struct PinCase {
  std::string name;
  std::uint32_t engineThreads;  // 0 = sequential engine
  sim::TimingConfig timing;
  std::uint32_t rings;
  gossip::Vicinity::Params vicinity;
  std::uint64_t expected;
};

std::uint64_t warmedOverlayHash(const PinCase& pin) {
  const auto scenario = Scenario::builder()
                            .nodes(2'000)
                            .seed(7)
                            .engineThreads(pin.engineThreads)
                            .timing(pin.timing)
                            .rings(pin.rings)
                            .vicinityParams(pin.vicinity)
                            .warmupCycles(40)
                            .build();
  return overlayHash(scenario);
}

TEST(OverlayPin, WarmedViewsMatchRecordedHashes) {
  const auto cycleSync = sim::TimingConfig::cycleSync();
  const auto jittered = sim::TimingConfig::jittered();
  const gossip::Vicinity::Params paper{};
  // Two salted rings with views past View::kInlineCapacity (heap-backed
  // views, a wider offer) on the parallel engine.
  const gossip::Vicinity::Params wide{.viewLength = 28, .exchangeLength = 13};
  const std::vector<PinCase> cases = {
      {"sequential/cyclesync", 0, cycleSync, 1, paper, 0x3d41730539bca1fdULL},
      {"sequential/jittered", 0, jittered, 1, paper, 0x77bbcdd9f889681fULL},
      {"sharded1/cyclesync", 1, cycleSync, 1, paper, 0xbb5dc3d0b07d32bfULL},
      {"sharded2/cyclesync", 2, cycleSync, 1, paper, 0xbb5dc3d0b07d32bfULL},
      {"sharded1/jittered", 1, jittered, 1, paper, 0xf32c5e5c81ae1cd4ULL},
      {"sharded2/jittered", 2, jittered, 1, paper, 0xf32c5e5c81ae1cd4ULL},
      {"sharded2/cyclesync/2 wide rings", 2, cycleSync, 2, wide,
       0x61ff9c580ff5ea22ULL},
  };
  for (const auto& pin : cases) {
    SCOPED_TRACE(pin.name);
    const std::uint64_t hash = warmedOverlayHash(pin);
    EXPECT_EQ(hash, pin.expected) << std::hex << "0x" << hash;
  }
}

}  // namespace
}  // namespace vs07::analysis
