// The Send & Forget rules — Figure 5.1 and the §5 batched variant — over
// one view row.
//
// Both engines keep a node's view as a ViewRow (core/view.hpp): s packed
// slots plus the outdegree d(u). `SendForget` hands its LocalView's row to
// these functions, `FlatSendForgetCluster` one row of its slab, so the rules
// are written once and the engines only convert their messages and count.
//
//   InitiateAction(u):                    Receive(u, [v1, v2]):
//     select 1 <= i != j <= s u.a.r.        if d(u) < s:
//     v <- u.lv[i]; w <- u.lv[j]              put v1, v2 into two empty
//     if v != ⊥ and w != ⊥:                   slots chosen u.a.r.
//       send [u, w] to v                    else: delete (drop) them
//       if d(u) > dL:
//         u.lv[i] <- ⊥; u.lv[j] <- ⊥       Invariant (Obs 5.1): d(u) is
//       (else: duplication)                 always even and in [dL, s].
//
// Defined inline: the flat engine's hot path calls them per action, and
// the build has no LTO.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "core/packed_view.hpp"
#include "core/view.hpp"

namespace gossip {

// Upper bound on SendForgetConfig::pairs_per_message, fixed so FlatPush
// stays a fixed-size POD the mailbox frames can hold by value.
inline constexpr std::size_t kMaxPairsPerMessage = 4;

// A S&F push message in flat form. `ids[0]` carries the initiator's own id,
// `ids[1..count-1]` the ids lifted from the initiator's view; dependence
// tags as in the dependence MC of Fig 7.1. `count` is 2 for the plain
// protocol and 2p for the §5 batched variant.
struct FlatPush {
  NodeId to = kNilNode;
  std::uint32_t count = 0;
  PackedViewEntry ids[2 * kMaxPairsPerMessage];
  // Flight-recorder correlation id threading a send to its delivery across
  // shards; 0 when no recorder is attached. Not protocol state: receive()
  // ignores it and it is invisible to the cluster fingerprint.
  std::uint64_t message_id = 0;

  // The [u, w] naming of Fig 5.1 (valid for every p >= 1).
  [[nodiscard]] PackedViewEntry sender() const { return ids[0]; }
  [[nodiscard]] PackedViewEntry carried() const { return ids[1]; }
};

enum class FlatInitiateResult : std::uint8_t {
  kSelfLoop,        // a selected slot was empty; no message produced
  kSent,            // message produced, selected slots cleared
  kSentDuplicated,  // message produced, slots kept (low degree)
};

// What an initiate-action does beyond the plain rule. The object engine's
// §5 mark & undelete option hooks in here; the flat engine runs with these
// empty defaults, which compile away.
struct NoMarks {
  // Runs when the action is about to duplicate. It may fill empty slots
  // (never the selected ones); the duplication test is then re-read.
  void refill() {}
  // Sees each selected slot's entry just before the slot is emptied.
  void sent(std::size_t /*slot*/, PackedViewEntry /*entry*/) {}
};

// InitiateAction(u) of Fig 5.1 (p = 1): one distinct_pair draw, nothing
// else. On kSelfLoop `out` is untouched; otherwise it holds the message to
// deliver (or lose — that is the caller's call).
template <class Marks = NoMarks>
FlatInitiateResult initiate_pair(ViewRow row, std::size_t min_degree,
                                 NodeId self, Rng& rng, FlatPush& out,
                                 Marks marks = {}) {
  const auto [i, j] = rng.distinct_pair(row.size);
  const PackedViewEntry target = row.slots[i];
  const PackedViewEntry carried = row.slots[j];
  if (target.empty() || carried.empty()) {
    // "If either of them is empty, nothing happens" — a self-loop
    // transformation in the MC model.
    return FlatInitiateResult::kSelfLoop;
  }
  bool duplicate = row.degree <= min_degree;
  if (duplicate) {
    marks.refill();
    duplicate = row.degree <= min_degree;
  }
  if (!duplicate) {
    marks.sent(i, target);
    marks.sent(j, carried);
    row.slots[i] = PackedViewEntry{};
    row.slots[j] = PackedViewEntry{};
    row.degree = static_cast<std::uint16_t>(row.degree - 2);
  }
  // Ids sent *with* duplication are the newly created dependent instances;
  // ids sent *without* duplication move (and become/remain representative,
  // i.e. independent).
  out.to = target.id_unchecked();
  out.count = 2;
  out.ids[0] = PackedViewEntry::pack(self, duplicate);
  out.ids[1] = carried.with_dependent(duplicate);
  return duplicate ? FlatInitiateResult::kSentDuplicated
                   : FlatInitiateResult::kSent;
}

// The §5 batched initiate (p = pairs in [2, kMaxPairsPerMessage]): 2p
// distinct slots drawn by rejection; the message carries the initiator's id
// plus the 2p - 1 ids after the first, which names the destination.
template <class Marks = NoMarks>
FlatInitiateResult initiate_batch(ViewRow row, std::size_t pairs,
                                  std::size_t min_degree, NodeId self,
                                  Rng& rng, FlatPush& out, Marks marks = {}) {
  assert(pairs >= 1 && pairs <= kMaxPairsPerMessage);
  const std::size_t want = 2 * pairs;
  // 2p distinct slots, uniform, by rejection against a fixed-size scratch
  // (no allocation; want <= 8 keeps the duplicate scan trivial).
  std::size_t slots[2 * kMaxPairsPerMessage];
  std::size_t got = 0;
  while (got < want) {
    const std::size_t i = rng.uniform(row.size);
    bool seen = false;
    for (std::size_t t = 0; t < got; ++t) {
      if (slots[t] == i) {
        seen = true;
        break;
      }
    }
    if (!seen) slots[got++] = i;
  }
  PackedViewEntry picked[2 * kMaxPairsPerMessage];
  for (std::size_t t = 0; t < want; ++t) {
    picked[t] = row.slots[slots[t]];
    // Any empty selection aborts the action (the p-fold "nothing happens").
    if (picked[t].empty()) return FlatInitiateResult::kSelfLoop;
  }
  // Keep the slots while the view is within `want` of the floor (the p = 1
  // test `degree <= min_degree` at even degrees).
  bool duplicate = row.degree < min_degree + want;
  if (duplicate) {
    marks.refill();
    duplicate = row.degree < min_degree + want;
  }
  if (!duplicate) {
    for (std::size_t t = 0; t < want; ++t) {
      marks.sent(slots[t], picked[t]);
      row.slots[slots[t]] = PackedViewEntry{};
    }
    row.degree = static_cast<std::uint16_t>(row.degree - want);
  }
  out.to = picked[0].id_unchecked();
  out.count = static_cast<std::uint32_t>(want);
  out.ids[0] = PackedViewEntry::pack(self, duplicate);
  for (std::size_t t = 1; t < want; ++t) {
    out.ids[t] = picked[t].with_dependent(duplicate);
  }
  return duplicate ? FlatInitiateResult::kSentDuplicated
                   : FlatInitiateResult::kSent;
}

// Receive(u, [v1, .., v2p]) of Fig 5.1 / §5: each id goes into a uniformly
// random empty slot until the view is full. Returns the number accepted —
// all of them, or the prefix that fit (0 on a full view); the caller counts
// any shortfall as one deletion. A received copy of the node's own id forms
// a self-edge, which the paper labels dependent (§2).
inline std::size_t receive_push(ViewRow row, NodeId self,
                                const FlatPush& message, Rng& rng) {
  assert(message.count >= 2 && message.count <= 2 * kMaxPairsPerMessage);
  std::size_t accepted = 0;
  for (; accepted < message.count; ++accepted) {
    if (row.degree == row.size) break;  // d(u) = s: the rest is deleted
    PackedViewEntry entry = message.ids[accepted];
    if (entry.id_unchecked() == self) entry = entry.as_dependent();
    row.slots[random_empty_slot(row.slots, row.size, row.degree, rng)] =
        entry;
    row.degree = static_cast<std::uint16_t>(row.degree + 1);
  }
  return accepted;
}

}  // namespace gossip
