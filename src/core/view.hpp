// Local membership view (u.lv in the paper, §2).
//
// A view is an array of `s` slots, each either empty (⊥) or holding a node
// id. Duplicate ids are allowed (the view is a multiset). Each nonempty slot
// additionally carries a dependence tag used to *measure* the spatial
// independence property (M4): a slot is tagged dependent when its content
// was created by a duplication (see §7.4 and the dependence MC of Fig 7.1).
//
// The slots are one packed row (core/packed_view.hpp), the same layout as a
// FlatSendForgetCluster row, so the S&F rules of core/send_forget_row.hpp
// run on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/id_set.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "core/packed_view.hpp"

namespace gossip {

// A view row as the S&F rules see it: `size` packed slots and the
// outdegree d(u), the number of nonempty ones.
struct ViewRow {
  PackedViewEntry* slots;
  std::size_t size;
  std::uint16_t& degree;
};

class LocalView {
 public:
  // Creates a view with `capacity` slots, all empty. The paper requires the
  // capacity s to be even and >= 6 for its reachability proofs; that
  // constraint is enforced by the protocol configs, not here, so tests can
  // exercise small views. Throws std::invalid_argument above 65535 slots
  // (the degree is 16 bits, as in the flat engine).
  explicit LocalView(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return row_.size(); }

  // Outdegree d(u): number of nonempty slots.
  [[nodiscard]] std::size_t degree() const { return degree_; }
  [[nodiscard]] std::size_t empty_slots() const {
    return capacity() - degree_;
  }
  [[nodiscard]] bool full() const { return degree_ == capacity(); }

  [[nodiscard]] bool slot_empty(std::size_t i) const { return row_[i].empty(); }
  // Slot contents; entry(i).empty() for an empty slot.
  [[nodiscard]] ViewEntry entry(std::size_t i) const {
    return row_[i].unpack();
  }

  // Writes a nonempty entry into slot i (slot may be empty or occupied).
  // Throws std::invalid_argument for an id the packed row cannot hold
  // (above PackedViewEntry::kMaxId, kNilNode included).
  void set(std::size_t i, ViewEntry entry);

  // Empties slot i (idempotent).
  void clear(std::size_t i);

  // Uniformly random empty slot index. Requires empty_slots() > 0.
  [[nodiscard]] std::size_t random_empty_slot(Rng& rng) const {
    return gossip::random_empty_slot(row_.data(), capacity(), degree_, rng);
  }

  // Uniformly random nonempty slot index. Requires degree() > 0.
  [[nodiscard]] std::size_t random_nonempty_slot(Rng& rng) const {
    return gossip::random_nonempty_slot(row_.data(), capacity(), degree_,
                                        rng);
  }

  // Multiplicity of `id` among nonempty slots.
  [[nodiscard]] std::size_t multiplicity(NodeId id) const;
  [[nodiscard]] bool contains(NodeId id) const { return multiplicity(id) > 0; }

  // Nonempty entries in slot order.
  [[nodiscard]] std::vector<ViewEntry> entries() const;
  // Ids of nonempty entries in slot order (with multiplicity).
  [[nodiscard]] std::vector<NodeId> ids() const;
  // The same ids written to out[0, degree()), for scans over every view
  // that should not allocate per view; returns degree(). `out` must have
  // room for capacity() ids. No branch per slot.
  std::size_t copy_ids(NodeId* out) const;

  // Number of nonempty slots tagged dependent.
  [[nodiscard]] std::size_t dependent_count() const;

  // Number of redundant duplicate ids within this view (multiset count
  // minus distinct count over nonempty slots). `seen` is scratch that a
  // scan over every view reuses across views.
  [[nodiscard]] std::size_t intra_view_duplicates(IdSet& seen) const;

  void clear_all();

  // The row itself, for the S&F rules.
  [[nodiscard]] ViewRow row() { return {row_.data(), row_.size(), degree_}; }
  // The packed slots, capacity() of them, empty ones included.
  [[nodiscard]] const PackedViewEntry* slots() const { return row_.data(); }

 private:
  std::vector<PackedViewEntry> row_;
  std::uint16_t degree_ = 0;
};

}  // namespace gossip
