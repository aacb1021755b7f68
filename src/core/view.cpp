#include "core/view.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gossip {

LocalView::LocalView(std::size_t capacity) : row_(capacity) {
  assert(capacity > 0);
  if (capacity > 0xFFFF) {
    throw std::invalid_argument("a view holds at most 65535 slots");
  }
}

void LocalView::set(std::size_t i, ViewEntry entry) {
  assert(i < row_.size());
  if (!PackedViewEntry::packable(entry.id)) {
    throw std::invalid_argument("view entry id does not fit a packed slot");
  }
  if (row_[i].empty()) ++degree_;
  row_[i] = PackedViewEntry::pack(entry.id, entry.dependent);
}

void LocalView::clear(std::size_t i) {
  assert(i < row_.size());
  if (!row_[i].empty()) --degree_;
  row_[i] = PackedViewEntry{};
}

std::size_t LocalView::multiplicity(NodeId id) const {
  std::size_t count = 0;
  for (const PackedViewEntry slot : row_) {
    if (!slot.empty() && slot.id_unchecked() == id) ++count;
  }
  return count;
}

std::vector<ViewEntry> LocalView::entries() const {
  std::vector<ViewEntry> out;
  out.reserve(degree_);
  for (const PackedViewEntry slot : row_) {
    if (!slot.empty()) out.push_back(slot.unpack());
  }
  return out;
}

std::vector<NodeId> LocalView::ids() const {
  std::vector<NodeId> out;
  out.reserve(degree_);
  for (const PackedViewEntry slot : row_) {
    if (!slot.empty()) out.push_back(slot.id_unchecked());
  }
  return out;
}

std::size_t LocalView::copy_ids(NodeId* out) const {
  std::size_t count = 0;
  for (const PackedViewEntry slot : row_) {
    out[count] = slot.id_unchecked();
    count += slot.empty() ? 0 : 1;
  }
  return count;
}

std::size_t LocalView::dependent_count() const {
  std::size_t count = 0;
  for (const PackedViewEntry slot : row_) {
    if (slot.dependent()) ++count;
  }
  return count;
}

std::size_t LocalView::intra_view_duplicates(IdSet& seen) const {
  seen.reset(degree_);
  std::size_t duplicates = 0;
  for (const PackedViewEntry slot : row_) {
    if (!slot.empty() && !seen.insert(slot.id_unchecked())) ++duplicates;
  }
  return duplicates;
}

void LocalView::clear_all() {
  std::fill(row_.begin(), row_.end(), PackedViewEntry{});
  degree_ = 0;
}

}  // namespace gossip
