#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace vs07::net {
namespace {

struct Delivery {
  NodeId to;
  Message msg;
};

/// Records every delivery, plus the entry buffer each message arrived
/// with (to tell a moved message from a copied one).
class RecordingSink final : public DeliverySink {
 public:
  void deliver(NodeId to, Message&& msg) override {
    buffers.push_back(msg.entries.data());
    log.push_back({to, std::move(msg)});
  }

  std::vector<Delivery> log;
  std::vector<const PeerDescriptor*> buffers;
};

Message dataMessage(NodeId from, std::uint64_t id) {
  Message m;
  m.kind = MessageKind::Data;
  m.from = from;
  m.dataId = id;
  return m;
}

TEST(ImmediateTransport, DeliversSynchronously) {
  RecordingSink sink;
  ImmediateTransport t(sink);
  t.send(7, dataMessage(1, 100));
  ASSERT_EQ(sink.log.size(), 1u);
  EXPECT_EQ(sink.log[0].to, 7u);
  EXPECT_EQ(sink.log[0].msg.dataId, 100u);
  EXPECT_EQ(t.sent(), 1u);
}

TEST(ImmediateTransport, DeliversInSendOrderAndCountsEverySend) {
  RecordingSink sink;
  ImmediateTransport t(sink);
  for (std::uint64_t i = 0; i < 5; ++i) t.send(2, dataMessage(0, i));
  ASSERT_EQ(sink.log.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(sink.log[i].msg.dataId, i);
  EXPECT_EQ(t.sent(), 5u);
}

TEST(ImmediateTransport, ForwardsByMoveNotCopy) {
  // The message the sink receives must be the very object the caller
  // sent: same entry buffer, no copy anywhere on the path.
  RecordingSink sink;
  ImmediateTransport t(sink);

  Message msg;
  msg.kind = MessageKind::CyclonRequest;
  msg.from = 3;
  for (int i = 0; i < 6; ++i)
    msg.entries.push_back({static_cast<NodeId>(i + 10), 0, 0});
  const PeerDescriptor* sentData = msg.entries.data();

  t.send(1, std::move(msg));
  ASSERT_EQ(sink.buffers.size(), 1u);
  EXPECT_EQ(sink.buffers[0], sentData) << "message was copied on the way";
  EXPECT_EQ(sink.log[0].msg.entries.size(), 6u);
}

}  // namespace
}  // namespace vs07::net
