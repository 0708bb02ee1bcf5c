// Message routing from a Transport's delivery sink to protocol handlers.
//
// The simulator installs one MessageRouter as the DeliverySink of whatever
// transport stack it builds; protocols register per message kind. Messages
// addressed to dead nodes are counted and dropped (a dead node neither
// replies to gossip nor forwards data), which is precisely how CYCLON's
// implicit failure detection and the paper's lost-forward semantics work.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "net/delivery_sink.hpp"
#include "net/message.hpp"
#include "sim/network.hpp"

namespace vs07::sim {

/// Dispatches delivered messages to per-kind handlers, dropping traffic to
/// dead nodes. Implements net::DeliverySink, so transports call it with
/// one virtual dispatch and no std::function box on the hot path.
class MessageRouter final : public net::DeliverySink {
 public:
  using Handler = std::function<void(NodeId to, const net::Message&)>;

  explicit MessageRouter(const Network& network) : network_(&network) {}

  /// Registers the handler for one (kind, channel) pair (overwrites).
  void route(net::MessageKind kind, Handler handler,
             std::uint8_t channel = 0);

  // net::DeliverySink — dispatch to the registered handler. Handlers see
  // the message by const reference; the buffer is recycled by the caller
  // once the handler returns.
  void deliver(NodeId to, net::Message&& msg) override;

  /// Messages dropped because the destination was dead.
  std::uint64_t droppedDead() const noexcept { return droppedDead_; }

  /// Messages dropped because no handler was registered for their
  /// (kind, channel) slot. Always zero in a correctly wired system —
  /// the integration suites assert it — but under latency models a
  /// message can legitimately outlive the session that owned its slot,
  /// so delivery must degrade to counting, not to a crash.
  std::uint64_t droppedUnroutable() const noexcept {
    return droppedUnroutable_;
  }

 private:
  static constexpr std::size_t kKinds = net::kMessageKinds + 1;
  static std::size_t slot(net::MessageKind kind, std::uint8_t channel);

  const Network* network_;
  std::array<Handler, kKinds*(net::kMaxChannel + 1)> handlers_{};
  std::uint64_t droppedDead_ = 0;
  std::uint64_t droppedUnroutable_ = 0;
};

}  // namespace vs07::sim
