#include "common/event_queue.hpp"

#include <utility>

namespace vs07 {

std::uint64_t EventQueue::schedule(std::uint64_t dueTick,
                                   std::uint8_t priority, Action action) {
  VS07_EXPECT(action != nullptr);
  const std::uint64_t seq = nextSeq_++;
  heap_.push({dueTick, priority, seq, std::move(action)});
  return seq;
}

std::uint64_t EventQueue::nextDueTick() const {
  VS07_EXPECT(!heap_.empty());
  return heap_.top().dueTick;
}

void EventQueue::advanceTo(std::uint64_t tick) {
  if (tick > now_) now_ = tick;
  while (!heap_.empty() && heap_.top().dueTick <= tick) {
    // priority_queue::top() is const; the action is popped right after,
    // so copy-free extraction needs the const_cast idiom.
    Event event = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    event.action();
  }
}

}  // namespace vs07
