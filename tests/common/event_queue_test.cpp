// Determinism tests for the discrete-event scheduler: (dueTick,
// priority, seq) ordering, tie-breaks, re-entrant scheduling, and
// bit-identical replay.
#include "common/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace vs07 {
namespace {

TEST(EventQueue, ExecutesInDueTickOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3, 0, [&] { order.push_back(3); });
  queue.schedule(1, 0, [&] { order.push_back(1); });
  queue.schedule(2, 0, [&] { order.push_back(2); });
  queue.advanceTo(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.now(), 5u);
}

TEST(EventQueue, PriorityBreaksTiesWithinATick) {
  EventQueue queue;
  std::vector<std::string> order;
  queue.schedule(1, 2, [&] { order.push_back("control"); });
  queue.schedule(1, 1, [&] { order.push_back("timer"); });
  queue.schedule(1, 0, [&] { order.push_back("delivery"); });
  queue.advanceTo(1);
  EXPECT_EQ(order,
            (std::vector<std::string>{"delivery", "timer", "control"}));
}

TEST(EventQueue, SeqMakesEqualKeysFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    queue.schedule(4, 1, [&order, i] { order.push_back(i); });
  queue.advanceTo(4);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, OnlyDueEventsRun) {
  EventQueue queue;
  int ran = 0;
  queue.schedule(2, 0, [&] { ++ran; });
  queue.schedule(7, 0, [&] { ++ran; });
  queue.advanceTo(2);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.nextDueTick(), 7u);
}

TEST(EventQueue, ReentrantSchedulingAtCurrentTickRunsInSameAdvance) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1, 1, [&] {
    order.push_back(1);
    // Same tick, delivery priority (0): runs in this advance and jumps
    // ahead of the still pending timer event (priority 1) — within a
    // tick, deliveries always land before timers fire.
    queue.schedule(1, 0, [&] { order.push_back(3); });
  });
  queue.schedule(1, 1, [&] { order.push_back(2); });
  queue.advanceTo(1);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));

  // Same-priority re-entrant events instead queue behind pending ones.
  order.clear();
  queue.schedule(2, 1, [&] {
    order.push_back(1);
    queue.schedule(2, 1, [&] { order.push_back(3); });
  });
  queue.schedule(2, 1, [&] { order.push_back(2); });
  queue.advanceTo(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NullActionRejected) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(1, 0, nullptr), ContractViolation);
}

TEST(EventQueue, NextDueTickRequiresPendingEvents) {
  EventQueue queue;
  EXPECT_THROW(queue.nextDueTick(), ContractViolation);
}

/// Replay determinism: a randomised schedule (random due ticks and
/// priorities, re-entrant inserts) executes in exactly the same order
/// every time — the property every simulation suite builds on.
TEST(EventQueue, RandomisedScheduleReplaysBitIdentically) {
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    EventQueue queue;
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = 0; i < 500; ++i) {
      const auto due = rng.below(50);
      const auto priority = static_cast<std::uint8_t>(rng.below(3));
      queue.schedule(due, priority, [&order, &queue, &rng, i] {
        order.push_back(i);
        if (order.size() % 7 == 0)  // occasional re-entrant insert
          queue.schedule(queue.now() + rng.below(5), 0,
                         [&order, i] { order.push_back(1000 + i); });
      });
    }
    // Tick by tick, as the engine advances: re-entrant inserts due at
    // the current tick run in the same advance.
    for (std::uint64_t tick = 0; !queue.empty(); ++tick)
      queue.advanceTo(tick);
    return order;
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed: almost surely a different order
}

}  // namespace
}  // namespace vs07
