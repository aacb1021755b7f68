// View slots: the unpacked `ViewEntry` that APIs hand out, and the packed
// 4-byte `PackedViewEntry` that every view row stores.
//
// A `ViewEntry` is 8 bytes: a 4-byte NodeId plus a bool dependence tag that
// padding rounds up to another 4 bytes. Half of a row of them would be air.
// `PackedViewEntry` folds the dependence tag of the dependence MC
// (Fig 7.1) into the top bit of the id word:
//
//   bits = id | (dependent << 31)        id < 2^31   (asserted at pack time)
//   bits = 0xFFFFFFFF                    empty slot
//
// so a slot is 4 bytes, a 40-slot view row is 160 bytes (3 cache lines
// instead of 5), and emptiness / id / tag checks are single masked compares
// that vectorize. The all-ones empty encoding is deliberate: it is the
// bottom 32 bits of `kNilNode`, it cannot collide with a packed live id
// because pack() rejects ids above 2^31 - 2, and a row of empty slots is a
// memset pattern.
//
// `unpack()` restores the exact unpacked semantics — an empty slot reads as
// {kNilNode, independent} just as a default `ViewEntry` does — which is what
// keeps the fingerprint definition over unpacked values unchanged.
//
// Both engines keep a node's view as a row of these (LocalView holds one,
// FlatSendForgetCluster a slab of n), and both draw slots from a row with
// random_empty_slot / random_nonempty_slot below.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/node_id.hpp"
#include "common/rng.hpp"

namespace gossip {

struct ViewEntry {
  NodeId id = kNilNode;
  // True if this id instance was created by duplication (or is a self-edge);
  // propagated through messages. Purely observational: the protocol never
  // reads it.
  bool dependent = false;

  [[nodiscard]] bool empty() const { return id == kNilNode; }
  [[nodiscard]] bool operator==(const ViewEntry&) const = default;
};

class PackedViewEntry {
 public:
  static constexpr std::uint32_t kDependentBit = 0x8000'0000u;
  static constexpr std::uint32_t kIdMask = 0x7FFF'FFFFu;
  static constexpr std::uint32_t kEmptyBits = 0xFFFF'FFFFu;
  // Largest id that survives packing: bit 31 is the tag, and the all-ones
  // pattern (id 0x7FFFFFFF + dependent) is reserved for "empty".
  static constexpr NodeId kMaxId = 0x7FFF'FFFEu;

  constexpr PackedViewEntry() = default;

  // Whether `id` fits a packed slot (kNilNode does not).
  [[nodiscard]] static constexpr bool packable(NodeId id) {
    return id <= kMaxId;
  }

  [[nodiscard]] static constexpr PackedViewEntry pack(NodeId id,
                                                      bool dependent) {
    assert(id <= kMaxId);
    return PackedViewEntry(id | (dependent ? kDependentBit : 0u));
  }
  [[nodiscard]] static constexpr PackedViewEntry from_bits(
      std::uint32_t bits) {
    return PackedViewEntry(bits);
  }

  [[nodiscard]] constexpr bool empty() const { return bits_ == kEmptyBits; }
  // Sentinel-preserving: an empty slot reads back as kNilNode, exactly like
  // the unpacked ViewEntry's default id.
  [[nodiscard]] constexpr NodeId id() const {
    return empty() ? kNilNode : (bits_ & kIdMask);
  }
  [[nodiscard]] constexpr bool dependent() const {
    return !empty() && (bits_ & kDependentBit) != 0;
  }
  // Unchecked accessors for hot paths that already know the slot is live.
  [[nodiscard]] constexpr NodeId id_unchecked() const {
    return bits_ & kIdMask;
  }
  [[nodiscard]] constexpr std::uint32_t bits() const { return bits_; }

  // Same id, tag forced to `dependent` (the §5 duplication relabel).
  [[nodiscard]] constexpr PackedViewEntry with_dependent(
      bool dependent) const {
    assert(!empty());
    return PackedViewEntry((bits_ & kIdMask) |
                           (dependent ? kDependentBit : 0u));
  }
  [[nodiscard]] constexpr PackedViewEntry as_dependent() const {
    assert(!empty());
    return PackedViewEntry(bits_ | kDependentBit);
  }

  [[nodiscard]] constexpr ViewEntry unpack() const {
    return empty() ? ViewEntry{} : ViewEntry{id_unchecked(), dependent()};
  }

  friend constexpr bool operator==(PackedViewEntry a, PackedViewEntry b) {
    return a.bits_ == b.bits_;
  }

 private:
  explicit constexpr PackedViewEntry(std::uint32_t bits) : bits_(bits) {}

  std::uint32_t bits_ = kEmptyBits;
};

static_assert(sizeof(PackedViewEntry) == 4);

// Uniform over the slots of `row` (size slots, `matching` of them with
// empty() == want_empty, matching > 0): rejection sampling against the
// contiguous row (expected size/matching probes, all within the row's few
// cache lines), with an exact k-th-match scan fallback so the draw
// terminates. Each accepted probe is uniform over the matching slots, and
// so is the fallback; a mixture of uniforms over the same set stays
// uniform.
[[nodiscard]] inline std::size_t random_slot(const PackedViewEntry* row,
                                             std::size_t size,
                                             std::size_t matching,
                                             bool want_empty, Rng& rng) {
  assert(matching > 0);
  for (int probes = 0; probes < 64; ++probes) {
    const std::size_t i = rng.uniform(size);
    if (row[i].empty() == want_empty) return i;
  }
  std::size_t k = rng.uniform(matching);
  for (std::size_t i = 0;; ++i) {
    assert(i < size);
    if (row[i].empty() == want_empty && k-- == 0) return i;
  }
}

// Uniformly random empty slot of a row holding `degree` nonempty slots.
[[nodiscard]] inline std::size_t random_empty_slot(const PackedViewEntry* row,
                                                   std::size_t size,
                                                   std::size_t degree,
                                                   Rng& rng) {
  return random_slot(row, size, size - degree, /*want_empty=*/true, rng);
}

// Uniformly random nonempty slot of a row holding `degree` nonempty slots.
[[nodiscard]] inline std::size_t random_nonempty_slot(
    const PackedViewEntry* row, std::size_t size, std::size_t degree,
    Rng& rng) {
  return random_slot(row, size, degree, /*want_empty=*/false, rng);
}

}  // namespace gossip
