#include "analysis/graph_analysis.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace vs07::analysis {

std::vector<std::vector<std::uint32_t>> aliveAdjacency(
    const cast::OverlaySnapshot& snapshot, LinkSelection links) {
  const auto& aliveIds = snapshot.aliveIds();
  // Dense reindex: node id -> alive index.
  std::vector<std::uint32_t> index(snapshot.totalIds(), ~std::uint32_t{0});
  for (std::uint32_t i = 0; i < aliveIds.size(); ++i)
    index[aliveIds[i]] = i;

  std::vector<std::vector<std::uint32_t>> adjacency(aliveIds.size());
  for (std::uint32_t i = 0; i < aliveIds.size(); ++i) {
    const NodeId id = aliveIds[i];
    auto addEdges = [&](std::span<const NodeId> targets) {
      for (const NodeId t : targets) {
        if (t >= snapshot.totalIds() || !snapshot.isAlive(t)) continue;
        const std::uint32_t j = index[t];
        if (j == i) continue;
        if (std::find(adjacency[i].begin(), adjacency[i].end(), j) ==
            adjacency[i].end())
          adjacency[i].push_back(j);
      }
    };
    if (links.dlinks) addEdges(snapshot.dlinks(id));
    if (links.rlinks) addEdges(snapshot.rlinks(id));
  }
  return adjacency;
}

std::vector<std::uint32_t> stronglyConnectedComponentSizes(
    const std::vector<std::vector<std::uint32_t>>& adjacency) {
  std::vector<std::uint32_t> sizes;
  const auto n = static_cast<std::uint32_t>(adjacency.size());
  if (n == 0) return sizes;

  // Iterative Tarjan: explicit stack of (node, next-edge-index) frames.
  constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  std::vector<std::uint32_t> indexOf(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<std::uint8_t> onStack(n, 0);
  std::vector<std::uint32_t> sccStack;
  std::uint32_t nextIndex = 0;

  struct Frame {
    std::uint32_t node;
    std::uint32_t edge;
  };
  std::vector<Frame> callStack;

  for (std::uint32_t root = 0; root < n; ++root) {
    if (indexOf[root] != kUnvisited) continue;
    callStack.push_back({root, 0});
    while (!callStack.empty()) {
      auto& frame = callStack.back();
      const std::uint32_t u = frame.node;
      if (frame.edge == 0) {
        indexOf[u] = lowlink[u] = nextIndex++;
        sccStack.push_back(u);
        onStack[u] = 1;
      }
      bool descended = false;
      while (frame.edge < adjacency[u].size()) {
        const std::uint32_t v = adjacency[u][frame.edge++];
        if (indexOf[v] == kUnvisited) {
          callStack.push_back({v, 0});
          descended = true;
          break;
        }
        if (onStack[v]) lowlink[u] = std::min(lowlink[u], indexOf[v]);
      }
      if (descended) continue;
      // u is finished.
      if (lowlink[u] == indexOf[u]) {
        std::uint32_t size = 0;
        while (true) {
          const std::uint32_t w = sccStack.back();
          sccStack.pop_back();
          onStack[w] = 0;
          ++size;
          if (w == u) break;
        }
        sizes.push_back(size);
      }
      callStack.pop_back();
      if (!callStack.empty()) {
        const std::uint32_t parent = callStack.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  return sizes;
}

std::uint32_t stronglyConnectedComponentCount(
    const std::vector<std::vector<std::uint32_t>>& adjacency) {
  return static_cast<std::uint32_t>(
      stronglyConnectedComponentSizes(adjacency).size());
}

std::uint32_t largestStronglyConnectedComponent(
    const std::vector<std::vector<std::uint32_t>>& adjacency) {
  const auto sizes = stronglyConnectedComponentSizes(adjacency);
  return sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
}

std::vector<std::uint32_t> aliveIndegrees(const cast::OverlaySnapshot& snapshot,
                                          LinkSelection links) {
  const auto adjacency = aliveAdjacency(snapshot, links);
  std::vector<std::uint32_t> indegree(adjacency.size(), 0);
  for (const auto& nbrs : adjacency)
    for (const std::uint32_t j : nbrs) ++indegree[j];
  return indegree;
}

RingConvergence ringConvergence(const sim::Network& network,
                                const gossip::Vicinity& vicinity) {
  const auto& aliveIds = network.aliveIds();
  RingConvergence result;
  if (aliveIds.size() < 2) {
    result.successorAccuracy = result.predecessorAccuracy =
        result.bothAccuracy = 1.0;
    return result;
  }

  // Ground truth: alive nodes sorted by this ring's profile.
  std::vector<NodeId> sorted(aliveIds.begin(), aliveIds.end());
  std::sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    const auto pa = vicinity.profileOf(a);
    const auto pb = vicinity.profileOf(b);
    if (pa != pb) return pa < pb;
    return a < b;
  });

  const auto n = sorted.size();
  std::uint64_t succOk = 0;
  std::uint64_t predOk = 0;
  std::uint64_t bothOk = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId self = sorted[i];
    const NodeId trueSucc = sorted[(i + 1) % n];
    const NodeId truePred = sorted[(i + n - 1) % n];
    const auto neighbors = vicinity.ringNeighbors(self);
    const bool s = neighbors.successor == trueSucc;
    const bool p = neighbors.predecessor == truePred;
    succOk += s;
    predOk += p;
    bothOk += s && p;
  }
  result.successorAccuracy = static_cast<double>(succOk) / n;
  result.predecessorAccuracy = static_cast<double>(predOk) / n;
  result.bothAccuracy = static_cast<double>(bothOk) / n;
  return result;
}

}  // namespace vs07::analysis
