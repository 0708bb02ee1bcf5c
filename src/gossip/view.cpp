#include "gossip/view.hpp"

namespace vs07::gossip {

void View::copyFrom(const View& other) {
  owner_ = other.owner_;
  size_ = other.size_;
  if (other.heap_) {
    // capacity_ still holds *this*'s old capacity here; reuse the existing
    // block only when it is exactly the right size.
    if (!heap_ || capacity_ != other.capacity_)
      heap_ = std::make_unique<PeerDescriptor[]>(other.capacity_);
    for (std::uint32_t i = 0; i < size_; ++i) heap_[i] = other.heap_[i];
  } else {
    heap_.reset();
    inline_ = other.inline_;
  }
  capacity_ = other.capacity_;
}

std::size_t View::indexOf(NodeId node) const noexcept {
  const PeerDescriptor* e = data();
  for (std::size_t i = 0; i < size_; ++i)
    if (e[i].node == node) return i;
  return npos;
}

std::size_t View::oldestIndex() const {
  VS07_EXPECT(size_ > 0);
  const PeerDescriptor* e = data();
  std::size_t best = 0;
  for (std::size_t i = 1; i < size_; ++i)
    if (e[i].age > e[best].age) best = i;
  return best;
}

void View::add(const PeerDescriptor& entry) {
  VS07_EXPECT(!full());
  VS07_EXPECT(entry.node != owner_);
  VS07_EXPECT(!contains(entry.node));
  data()[size_++] = entry;
}

void View::assign(std::span<const PeerDescriptor> entries) {
  VS07_EXPECT(entries.size() <= capacity_);
  PeerDescriptor* e = data();
  for (const auto& entry : entries) {
    VS07_EXPECT(entry.node != owner_);
    *e++ = entry;
  }
  size_ = static_cast<std::uint32_t>(entries.size());
}

void View::removeAt(std::size_t i) {
  VS07_EXPECT(i < size_);
  PeerDescriptor* e = data();
  e[i] = e[size_ - 1];
  --size_;
}

bool View::removeNode(NodeId node) {
  const auto i = indexOf(node);
  if (i == npos) return false;
  removeAt(i);
  return true;
}

void View::incrementAges() noexcept {
  PeerDescriptor* e = data();
  for (std::size_t i = 0; i < size_; ++i) ++e[i].age;
}

std::vector<PeerDescriptor> View::randomEntries(std::size_t count,
                                                NodeId exclude,
                                                Rng& rng) const {
  std::vector<PeerDescriptor> pool;
  pool.reserve(size_);
  randomEntriesInto(count, exclude, rng, pool);
  return pool;
}

void View::randomEntriesInto(std::size_t count, NodeId exclude, Rng& rng,
                             std::vector<PeerDescriptor>& out) const {
  out.clear();
  const PeerDescriptor* e = data();
  for (std::size_t i = 0; i < size_; ++i)
    if (e[i].node != exclude) out.push_back(e[i]);
  if (count < out.size()) {
    // Partial Fisher-Yates: the first `count` slots become the sample.
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = i + rng.below(out.size() - i);
      std::swap(out[i], out[j]);
    }
    out.resize(count);
  }
}

}  // namespace vs07::gossip
