// Flat-storage Send & Forget cluster — the hot path of large-scale runs.
//
// Semantically this is `n` copies of the S&F state machine of Fig 5.1, the
// same protocol as `SendForget`; representationally it is one object: all
// views live in a single contiguous slab of 4-byte `PackedViewEntry` slots
// (capacity s per node, dependence tag folded into the id's top bit), with
// flat degree/liveness side arrays in struct-of-arrays layout. There is no
// per-node heap allocation, no virtual dispatch, and no std::vector message
// payload on the action path — a push fits in a fixed-size POD (`FlatPush`).
// A 40-slot view row is 160 bytes (3 cache lines instead of the unpacked
// layout's 5), which is what lets the sharded driver sustain n = 10^7 nodes
// at memory-bandwidth-limited speeds where the pointer-chasing `Cluster` of
// small objects cannot.
//
// The rules themselves live once in core/send_forget_row.hpp, shared with
// `SendForget`: a row of this slab is the same ViewRow a LocalView holds.
// Batched messages (§5): with `pairs_per_message` = p > 1 in the config the
// cluster runs the paper's batched-messages variant: one initiate-action
// samples 2p distinct slots and sends the initiator's id plus 2p-1 view ids
// in a single message. p = 1 is the plain Fig 5.1 protocol and reproduces
// the unpacked engine's RNG draw sequence exactly — bit-identical
// trajectories, pinned by the packed-vs-unpacked equivalence test in
// tests/test_packed_view.cpp. The §5 mark & undelete and replace-when-full
// options are object-engine only; the constructor rejects them.
//
// Thread-safety contract (relied on by ShardedDriver): distinct nodes' state
// is disjoint, so initiate(u)/receive(u) for different `u` may run
// concurrently as long as no two threads touch the same node; liveness reads
// during a round race with nothing because churn (kill/revive/install_*) is
// only legal at a synchronization point between rounds.
//
// The hot-path members (initiate / receive) are defined inline in this
// header, as are the row rules they call: the build has no LTO, and at
// ~100ns per action a cross-TU call per step is measurable.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/first_touch.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "core/packed_view.hpp"
#include "core/send_forget.hpp"
#include "core/send_forget_row.hpp"
#include "core/view.hpp"

namespace gossip {

class Digraph;

// Construction-time knobs orthogonal to the protocol parameters.
struct FlatClusterOptions {
  // Stripes the slab zero-fill across this many threads so each contiguous
  // node range is first-touched — and hence NUMA-placed — near the worker
  // that will own it. Purely a placement hint; 1 = plain serial fill.
  std::size_t init_threads = 1;
};

class FlatSendForgetCluster {
 public:
  FlatSendForgetCluster(std::size_t node_count, SendForgetConfig config,
                        FlatClusterOptions options = {});

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const SendForgetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  [[nodiscard]] bool live(NodeId u) const { return live_[u] != 0; }
  [[nodiscard]] std::size_t degree(NodeId u) const { return degree_[u]; }

  // InitiateAction(u), Fig 5.1 (p = 1) or its §5 batched generalization.
  // On kSelfLoop `out` is untouched; otherwise `out` holds the message to
  // deliver (or lose — that's the caller's call).
  FlatInitiateResult initiate(NodeId u, Rng& rng, FlatPush& out) {
    assert(u < n_ && live_[u]);
    if (config_.pairs_per_message == 1) {
      return initiate_pair(row(u), config_.min_degree, u, rng, out);
    }
    return initiate_batched(u, rng, out);
  }

  // Receive(u, [v1, .., v2p]), Fig 5.1 / §5: the number of ids accepted
  // into the view (see receive_push).
  std::size_t receive(NodeId u, const FlatPush& message, Rng& rng) {
    assert(u < n_ && live_[u]);
    return receive_push(row(u), u, message, rng);
  }

  // --- churn (only between rounds; see thread-safety contract above) ---

  // Marks u dead; its view is left frozen, ids referencing it wash out.
  void kill(NodeId u);

  // Rejoins a dead node per §5/§6.5: fresh view seeded with min_degree ids
  // of live nodes bootstrapped from a random live contact's view (topped up
  // from further random live nodes). Requires at least one live node.
  void revive(NodeId u, Rng& rng);

  // Installs a new duplication threshold dL (the §6.3 online retuning
  // actuator). Takes effect at the next initiate-action; all other state —
  // views, degrees, liveness — is untouched, and no RNG is drawn. The new
  // value must satisfy the protocol constraints (even, dL + 6 <= s);
  // throws std::invalid_argument otherwise.
  void set_min_degree(std::size_t min_degree);

  // --- topology loading / inspection (not hot paths) ---

  // Installs up to s out-neighbors into u's first slots, tagged independent.
  // Throws std::invalid_argument, leaving the row as it was, if one of
  // them is not a node of the cluster (id >= size()).
  void install_view(NodeId u, std::span<const NodeId> ids);
  void install_view(NodeId u, std::initializer_list<NodeId> ids) {
    install_view(u, std::span<const NodeId>(ids.begin(), ids.size()));
  }

  // Installs views from a membership graph: node u's view receives the
  // multiset of out-neighbors of u (truncated at capacity). Throws
  // std::invalid_argument unless the graph has size() vertices.
  void install_graph(const Digraph& graph);

  // Installs `id` (tagged independent) into slot `slot` of u, which must be
  // empty; throws std::invalid_argument if id >= size(). Lets callers seed
  // huge clusters slot by slot without materializing a Digraph, whose
  // arena alone is a further n x k x 4 B (sim::install_permutation_regular
  // writes permutation_regular's rows this way).
  void install_slot(NodeId u, std::size_t slot, NodeId id);

  // Ids of u's nonempty slots, in slot order (multiset semantics).
  [[nodiscard]] std::vector<NodeId> view_ids(NodeId u) const;

  // Nonempty entries of u's view, in slot order (unpacked).
  [[nodiscard]] std::vector<ViewEntry> view_entries(NodeId u) const;

  // Raw slot row of u: view_size() packed entries, empty slots included.
  // Zero-copy inspection path for the observability probes
  // (obs::probe_cluster), which must walk every view without allocating.
  [[nodiscard]] const PackedViewEntry* slots(NodeId u) const {
    return view(u);
  }
  [[nodiscard]] std::size_t view_size() const { return view_size_; }

  // Hints a node's liveness byte, degree, and every line of its slot row
  // toward cache: a 160-byte row at a 160-byte stride always spans 3 lines,
  // and receive()'s empty-slot probes may land on any of them. The driver
  // issues this for a message's receiver as soon as the destination is
  // known, so the random-access fetch overlaps the fault/loss draws or the
  // frame walk instead of stalling delivery. No architectural effect.
  //
  // always_inline is load-bearing: GCC finds that a function whose only
  // effects are prefetches is pure and deletes every call to it that it
  // did not inline early, hint and all. The prefetch_codegen test checks
  // that a call still emits a prefetch instruction.
  [[gnu::always_inline]] void prefetch_node(NodeId u) const {
    __builtin_prefetch(&live_[u]);
    __builtin_prefetch(&degree_[u]);
    constexpr std::uintptr_t kLine = 64;
    const auto first = reinterpret_cast<std::uintptr_t>(view(u));
    const std::uintptr_t last =
        first + view_size_ * sizeof(PackedViewEntry) - 1;
    for (std::uintptr_t line = first & ~(kLine - 1); line <= last;
         line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  // Uniformly random live node; requires live_count() > 0.
  [[nodiscard]] NodeId random_live_node(Rng& rng) const;

  // FNV-1a hash over every slot (id + dependence tag), degree and liveness
  // array — two runs are bit-identical iff their fingerprints match. Used
  // to assert the sharded driver's determinism contract. Computed over the
  // *unpacked* slot values, so the definition (and the value for any given
  // state) is unchanged from the unpacked engine.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  // Throws std::invalid_argument unless id names a node of the cluster.
  void check_id(NodeId id) const;

  [[nodiscard]] PackedViewEntry* view(NodeId u) {
    return slots_.data() + static_cast<std::size_t>(u) * view_size_;
  }
  [[nodiscard]] const PackedViewEntry* view(NodeId u) const {
    return slots_.data() + static_cast<std::size_t>(u) * view_size_;
  }

  [[nodiscard]] ViewRow row(NodeId u) {
    return {view(u), view_size_, degree_[u]};
  }

  // §5 batched variant (p >= 2); out-of-line, it is not the default path.
  FlatInitiateResult initiate_batched(NodeId u, Rng& rng, FlatPush& out);

  SendForgetConfig config_;
  std::size_t n_;
  std::size_t view_size_;
  FirstTouchSlab<PackedViewEntry> slots_;  // n * s contiguous, SoA
  FirstTouchSlab<std::uint16_t> degree_;   // outdegree d(u)
  FirstTouchSlab<std::uint8_t> live_;
  std::size_t live_count_;
};

}  // namespace gossip
