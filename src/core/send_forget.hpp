// The Send & Forget (S&F) membership protocol — Figure 5.1 of the paper —
// as one PeerProtocol object per node.
//
// S&F is push-only and bookkeeping-free: after a node sends a message it
// "forgets" about it, so actions never overlap at a node and the protocol
// tolerates message loss by construction. Loss is compensated by
// *duplication*: when the sender's outdegree is at the lower threshold dL,
// the sent ids are kept instead of cleared, creating (the only) dependent
// view entries. The rules are in core/send_forget_row.hpp, shared with
// FlatSendForgetCluster; this class converts messages and counts.
//
// The config also selects the three optimizations sketched (and deliberately
// left unanalyzed) at the end of §5:
//
//   1. *Mark & undelete* — instead of clearing sent ids, mark them as
//      tombstones; when the protocol would duplicate it first revives
//      tombstones. If the message that carried the ids was lost,
//      undeletion restores exactly the lost instances, so compensation is
//      better targeted than blind duplication.
//   2. *Replace when full* — a full view replaces random existing entries
//      with the received ids instead of dropping the new ones, keeping
//      fresh information flowing.
//   3. *Batched messages* — one message carries the sender's id plus
//      2p - 1 view ids (p "pairs"), amortizing per-message overhead.
//
// The base protocol is p = 1 with both flags off. 1 and 2 exist only here;
// 3 runs on both engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"

namespace gossip {

struct SendForgetConfig {
  // View size s: even, >= 6 (§5).
  std::size_t view_size = 40;
  // Lower outdegree threshold dL: even, 0 <= dL <= s - 6 (§5).
  std::size_t min_degree = 18;
  // §5 optimization 3: ids per message = 2p, p in [1, kMaxPairsPerMessage]
  // and 2p <= s. p = 1 is the base protocol.
  std::size_t pairs_per_message = 1;
  // §5 optimization 1 (SendForget only).
  bool mark_instead_of_clear = false;
  // §5 optimization 2 (SendForget only).
  bool replace_when_full = false;

  // Throws std::invalid_argument when the constraints above are violated.
  void validate() const;
};

// Returns the paper's example configuration from §6.3 (d_hat = 30,
// delta = 0.01): dL = 18, s = 40.
[[nodiscard]] SendForgetConfig default_send_forget_config();

class SendForget final : public PeerProtocol {
 public:
  // Throws std::invalid_argument on an invalid config, or when `self` does
  // not fit a packed view slot.
  SendForget(NodeId self, const SendForgetConfig& config);

  [[nodiscard]] const SendForgetConfig& config() const { return config_; }

  void on_initiate(Rng& rng, Transport& transport) override;
  void on_message(const Message& message, Rng& rng,
                  Transport& transport) override;

  // Mark & undelete: tombstones revived so far, and those held now.
  [[nodiscard]] std::uint64_t undeletions() const { return undeletions_; }
  [[nodiscard]] std::size_t tombstone_count() const {
    return tombstones_.size();
  }

 private:
  struct Marks;

  // Revives up to `count` tombstones, oldest first, in pairs.
  void undelete(std::size_t count);

  SendForgetConfig config_;
  // A slot whose id was sent but is kept revivable. A slot appears at most
  // once, and only while it is empty: a receive that reuses it ends it.
  struct Tombstone {
    std::size_t slot;
    NodeId id;
  };
  std::vector<Tombstone> tombstones_;
  std::uint64_t undeletions_ = 0;
};

}  // namespace gossip
