#include "net/transport.hpp"

#include <utility>

namespace vs07::net {

void ImmediateTransport::send(NodeId to, Message&& msg) {
  countSend();
  sink_.deliver(to, std::move(msg));
}

}  // namespace vs07::net
