// A set of node ids for counting repeats within one short list (a view, a
// graph row) without sorting it.
//
// Open addressing with linear probing over at least twice as many slots as
// the list is long, so a lookup ends after about two probes; a
// multiplicative hash spreads runs of consecutive ids. One set is reused
// across lists, so counting allocates only when a list is longer than any
// before it.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/node_id.hpp"

namespace gossip {

class IdSet {
 public:
  // Empties the set for a list of at most `max_size` ids.
  void reset(std::size_t max_size) {
    const std::size_t slots =
        std::bit_ceil(std::max<std::size_t>(8, 2 * max_size));
    shift_ = 64 - std::countr_zero(slots);
    slots_.assign(slots, kNilNode);
  }

  // Adds `id`, which must not be kNilNode; returns false if it was there.
  bool insert(NodeId id) {
    assert(id != kNilNode && !slots_.empty());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (id * std::uint64_t{0x9E3779B97F4A7C15}) >> shift_;
    while (slots_[i] != kNilNode) {
      if (slots_[i] == id) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = id;
    return true;
  }

 private:
  std::vector<NodeId> slots_;  // kNilNode marks a free slot
  int shift_ = 64;
};

}  // namespace gossip
