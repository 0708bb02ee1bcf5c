// Topic-based publish/subscribe — the §8 application: "each topic forms
// its own, separate dissemination overlay; events are multicast by
// disseminating them in the appropriate overlay."
//
// A news network: nodes subscribe to interest topics; publishers emit
// events per topic; delivery is complete within each topic and zero
// outside it.
//
//   $ ./pubsub_events [--nodes 400]
#include <cstdio>
#include <string>
#include <vector>

#include "cast/strategy.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "pubsub/topic.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

using namespace vs07;

int main(int argc, char** argv) {
  CliParser parser("Topic-based pub/sub over per-topic RingCast overlays.");
  parser.option("nodes", "population size (default 400)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;

  const auto nodes =
      argOrExit([&] { return args->getPositiveUint32("nodes", 400); });
  sim::Network network(nodes, 11);
  pubsub::PubSub pubsub(network, 12);

  // Interest profile: everyone follows "breaking"; halves follow sports
  // or markets; a tenth follows weather.
  auto& breaking = pubsub.topic("breaking");
  auto& sports = pubsub.topic("sports");
  auto& markets = pubsub.topic("markets");
  auto& weather = pubsub.topic("weather");
  Rng rng(13);
  for (NodeId id = 0; id < nodes; ++id) {
    breaking.subscribe(id);
    if (rng.chance(0.5)) sports.subscribe(id);
    if (rng.chance(0.5)) markets.subscribe(id);
    if (rng.chance(0.1)) weather.subscribe(id);
  }

  // One engine drives every topic's gossip (shared cycles, §6 style).
  sim::Engine engine(network, 14);
  engine.addProtocol(pubsub);
  engine.run(100);

  std::printf("%-10s %-12s %-10s %-10s %-9s %-8s\n", "topic",
              "subscribers", "notified", "complete", "last-hop", "msgs");
  for (const auto& name : pubsub.topicNames()) {
    auto& topic = pubsub.topic(name);
    // Publish from the lowest-id subscriber.
    NodeId origin = kNoNode;
    for (NodeId id = 0; id < nodes && origin == kNoNode; ++id)
      if (topic.isSubscribed(id)) origin = id;
    const auto report = topic.publish(origin, cast::Strategy::kRingCast,
                                      /*fanout=*/3, /*seed=*/rng());
    std::printf("%-10s %-12u %-10llu %-10s %-9u %-8llu\n", name.c_str(),
                topic.subscriberCount(),
                static_cast<unsigned long long>(report.notified),
                report.complete() ? "yes" : "NO", report.lastHop,
                static_cast<unsigned long long>(report.messagesTotal));
  }

  // Interest changes: a quarter of sports followers drop the topic; the
  // overlay shrinks and stays complete for the remaining subscribers.
  std::printf("\n25%% of sports followers unsubscribe...\n");
  std::vector<NodeId> leavers;
  for (NodeId id = 0; id < nodes; ++id)
    if (sports.isSubscribed(id) && rng.chance(0.25)) leavers.push_back(id);
  for (const NodeId id : leavers) sports.unsubscribe(id);
  engine.run(60);  // let the views heal

  NodeId origin = kNoNode;
  for (NodeId id = 0; id < nodes && origin == kNoNode; ++id)
    if (sports.isSubscribed(id)) origin = id;
  const auto report =
      sports.publish(origin, cast::Strategy::kRingCast, 3, rng());
  std::printf(
      "sports now has %u subscribers; next event reached %llu (%s)\n",
      sports.subscriberCount(),
      static_cast<unsigned long long>(report.notified),
      report.complete() ? "complete" : "incomplete");
  return 0;
}
