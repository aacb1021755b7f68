#include "core/packed_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "graph/graph_gen.hpp"

namespace gossip {
namespace {

// ---------------------------------------------------------------------------
// PackedViewEntry encoding properties.
// ---------------------------------------------------------------------------

TEST(PackedView, IsFourBytes) {
  static_assert(sizeof(PackedViewEntry) == 4);
  static_assert(sizeof(PackedViewEntry[10]) == 40);
}

TEST(PackedView, DefaultIsEmptyWithNilSentinel) {
  const PackedViewEntry e;
  EXPECT_TRUE(e.empty());
  // The kNilNode sentinel survives packing: an empty slot reads back the
  // same id the unpacked ViewEntry would have reported.
  EXPECT_EQ(e.id(), kNilNode);
  EXPECT_FALSE(e.dependent());
  EXPECT_EQ(e.unpack(), ViewEntry{});
}

TEST(PackedView, PackUnpackRoundTripProperty) {
  Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto id = static_cast<NodeId>(
        rng.uniform(PackedViewEntry::kMaxId + 1));
    const bool dep = rng.bernoulli(0.5);
    const PackedViewEntry e = PackedViewEntry::pack(id, dep);
    ASSERT_FALSE(e.empty());
    ASSERT_EQ(e.id(), id);
    ASSERT_EQ(e.id_unchecked(), id);
    ASSERT_EQ(e.dependent(), dep);
    const ViewEntry u = e.unpack();
    ASSERT_EQ(u.id, id);
    ASSERT_EQ(u.dependent, dep);
    // Re-packing the unpacked value is the identity.
    ASSERT_EQ(PackedViewEntry::pack(u.id, u.dependent), e);
  }
}

TEST(PackedView, ExtremeIdsRoundTrip) {
  for (const bool dep : {false, true}) {
    for (const NodeId id : {NodeId{0}, NodeId{1}, PackedViewEntry::kMaxId}) {
      const PackedViewEntry e = PackedViewEntry::pack(id, dep);
      EXPECT_EQ(e.id(), id);
      EXPECT_EQ(e.dependent(), dep);
      EXPECT_FALSE(e.empty());
    }
  }
}

TEST(PackedView, DependentBitManipulation) {
  const PackedViewEntry indep = PackedViewEntry::pack(42, false);
  EXPECT_TRUE(indep.as_dependent().dependent());
  EXPECT_EQ(indep.as_dependent().id(), 42u);
  EXPECT_EQ(indep.with_dependent(false), indep);
  EXPECT_EQ(indep.with_dependent(true), indep.as_dependent());
  EXPECT_EQ(indep.as_dependent().with_dependent(false), indep);
}

TEST(PackedView, BitsRoundTripThroughFromBits) {
  const PackedViewEntry e = PackedViewEntry::pack(123456, true);
  EXPECT_EQ(PackedViewEntry::from_bits(e.bits()), e);
  EXPECT_TRUE(PackedViewEntry::from_bits(PackedViewEntry{}.bits()).empty());
}

// ---------------------------------------------------------------------------
// Packed-vs-unpacked equivalence: the packed engine at p = 1 must replay
// the seed engine's trajectory draw for draw. `ReferenceFlatCluster` below
// is a line-for-line port of the unpacked FlatSendForgetCluster this PR
// replaced (std::vector<ViewEntry> slab, 20-byte push), kept here as the
// semantic pin.
// ---------------------------------------------------------------------------

struct ReferencePush {
  NodeId to = kNilNode;
  ViewEntry sender;
  ViewEntry carried;
};

enum class ReferenceResult : std::uint8_t { kSelfLoop, kSent, kSentDuplicated };

class ReferenceFlatCluster {
 public:
  ReferenceFlatCluster(std::size_t node_count, SendForgetConfig config)
      : config_(config),
        n_(node_count),
        view_size_(config.view_size),
        slots_(node_count * config.view_size),
        degree_(node_count, 0),
        live_(node_count, 1),
        live_count_(node_count) {}

  [[nodiscard]] bool live(NodeId u) const { return live_[u] != 0; }
  [[nodiscard]] std::size_t degree(NodeId u) const { return degree_[u]; }

  ReferenceResult initiate(NodeId u, Rng& rng, ReferencePush& out) {
    ViewEntry* v = view(u);
    const auto [i, j] = rng.distinct_pair(view_size_);
    const ViewEntry target = v[i];
    const ViewEntry carried = v[j];
    if (target.empty() || carried.empty()) return ReferenceResult::kSelfLoop;
    const bool duplicate = degree_[u] <= config_.min_degree;
    if (!duplicate) {
      v[i] = ViewEntry{};
      v[j] = ViewEntry{};
      degree_[u] -= 2;
    }
    out.to = target.id;
    out.sender = ViewEntry{u, duplicate};
    out.carried = ViewEntry{carried.id, duplicate};
    return duplicate ? ReferenceResult::kSentDuplicated
                     : ReferenceResult::kSent;
  }

  std::size_t receive(NodeId u, const ReferencePush& message, Rng& rng) {
    if (degree_[u] == view_size_) return 0;
    store(u, message.sender, rng);
    store(u, message.carried, rng);
    return 2;
  }

  void kill(NodeId u) {
    if (!live_[u]) return;
    live_[u] = 0;
    --live_count_;
  }

  void revive(NodeId u, Rng& rng) {
    const std::size_t want = config_.min_degree;
    std::vector<NodeId> boot;
    boot.reserve(want);
    const auto add_distinct = [&](NodeId id) {
      if (id == u || !live_[id]) return;
      if (std::find(boot.begin(), boot.end(), id) != boot.end()) return;
      boot.push_back(id);
    };
    NodeId contact = random_live_node(rng);
    for (int attempts = 0; boot.size() < want && attempts < 64; ++attempts) {
      add_distinct(contact);
      const ViewEntry* cv = view(contact);
      for (std::size_t i = 0; i < view_size_ && boot.size() < want; ++i) {
        if (!cv[i].empty()) add_distinct(cv[i].id);
      }
      contact = random_live_node(rng);
    }
    while (boot.size() < want) {
      const NodeId id = random_live_node(rng);
      if (id != u) boot.push_back(id);
    }
    ViewEntry* v = view(u);
    for (std::size_t i = 0; i < view_size_; ++i) v[i] = ViewEntry{};
    for (std::size_t i = 0; i < boot.size(); ++i) {
      v[i] = ViewEntry{boot[i], /*dependent=*/false};
    }
    degree_[u] = static_cast<std::uint32_t>(boot.size());
    live_[u] = 1;
    ++live_count_;
  }

  void install_view(NodeId u, const std::vector<NodeId>& ids) {
    ViewEntry* v = view(u);
    for (std::size_t i = 0; i < view_size_; ++i) v[i] = ViewEntry{};
    const std::size_t count = std::min(ids.size(), view_size_);
    for (std::size_t i = 0; i < count; ++i) {
      v[i] = ViewEntry{ids[i], /*dependent=*/false};
    }
    degree_[u] = static_cast<std::uint32_t>(count);
  }

  [[nodiscard]] std::vector<ViewEntry> view_entries(NodeId u) const {
    const ViewEntry* v = view(u);
    std::vector<ViewEntry> out;
    for (std::size_t i = 0; i < view_size_; ++i) {
      if (!v[i].empty()) out.push_back(v[i]);
    }
    return out;
  }

  // Same FNV-1a definition as FlatSendForgetCluster::fingerprint, over the
  // same unpacked values — equal states hash equal across representations.
  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    const auto mix = [&h](std::uint64_t value) {
      h ^= value;
      h *= 0x100000001B3ULL;
    };
    for (const ViewEntry& e : slots_) {
      mix(e.id);
      mix(e.dependent ? 2 : 1);
    }
    for (NodeId u = 0; u < n_; ++u) {
      mix(degree_[u]);
      mix(live_[u]);
    }
    return h;
  }

 private:
  [[nodiscard]] ViewEntry* view(NodeId u) {
    return slots_.data() + static_cast<std::size_t>(u) * view_size_;
  }
  [[nodiscard]] const ViewEntry* view(NodeId u) const {
    return slots_.data() + static_cast<std::size_t>(u) * view_size_;
  }

  [[nodiscard]] NodeId random_live_node(Rng& rng) const {
    for (;;) {
      const auto id = static_cast<NodeId>(rng.uniform(n_));
      if (live_[id]) return id;
    }
  }

  [[nodiscard]] std::size_t random_empty_slot(NodeId u, Rng& rng) const {
    const ViewEntry* v = view(u);
    const std::size_t empties = view_size_ - degree_[u];
    for (int probes = 0; probes < 64; ++probes) {
      const std::size_t i = rng.uniform(view_size_);
      if (v[i].empty()) return i;
    }
    std::size_t k = rng.uniform(empties);
    for (std::size_t i = 0;; ++i) {
      if (v[i].empty() && k-- == 0) return i;
    }
  }

  void store(NodeId u, ViewEntry entry, Rng& rng) {
    if (entry.id == u) entry.dependent = true;
    const std::size_t slot = random_empty_slot(u, rng);
    view(u)[slot] = entry;
    ++degree_[u];
  }

  SendForgetConfig config_;
  std::size_t n_;
  std::size_t view_size_;
  std::vector<ViewEntry> slots_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint8_t> live_;
  std::size_t live_count_;
};

TEST(PackedView, LockstepEquivalenceWithUnpackedReference) {
  // Drive both engines through the identical operation sequence with
  // identically-seeded RNG streams. Any divergence in draw order or
  // semantics desynchronizes the streams and cascades into the per-step
  // assertions, so passing pins bit-identical trajectories — including the
  // dependence-tag propagation under duplication and the self-edge rule.
  const std::size_t n = 600;
  const auto cfg = default_send_forget_config();
  FlatSendForgetCluster packed(n, cfg);
  ReferenceFlatCluster reference(n, cfg);
  {
    Rng graph_rng(77);
    const Digraph g = permutation_regular(n, cfg.min_degree, graph_rng);
    for (NodeId u = 0; u < n; ++u) {
      packed.install_view(u, g.out_neighbors(u));
      reference.install_view(u, std::vector<NodeId>(g.out_neighbors(u).begin(),
                                                    g.out_neighbors(u).end()));
    }
    // Start a block of nodes with full views so the d(u) = s deletion path
    // is exercised early (steady state rarely reaches it from dL).
    for (NodeId u = 0; u < 64; ++u) {
      std::vector<NodeId> full;
      for (std::size_t i = 1; i <= cfg.view_size; ++i) {
        full.push_back(static_cast<NodeId>((u + i) % n));
      }
      packed.install_view(u, full);
      reference.install_view(u, full);
    }
  }
  Rng packed_rng(424242);
  Rng ref_rng(424242);
  Rng churn_schedule(9);  // shared: *when* to churn, not a protocol draw
  std::vector<NodeId> dead;
  std::uint64_t sent = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t deletions = 0;
  for (int step = 0; step < 60000; ++step) {
    const auto u = static_cast<NodeId>(packed_rng.uniform(n));
    ASSERT_EQ(u, static_cast<NodeId>(ref_rng.uniform(n)));
    if (packed.live(u)) {
      FlatPush pmsg;
      ReferencePush rmsg;
      const FlatInitiateResult pres = packed.initiate(u, packed_rng, pmsg);
      const ReferenceResult rres = reference.initiate(u, ref_rng, rmsg);
      ASSERT_EQ(static_cast<int>(pres), static_cast<int>(rres));
      if (pres != FlatInitiateResult::kSelfLoop) {
        ++sent;
        if (pres == FlatInitiateResult::kSentDuplicated) ++duplicated;
        ASSERT_EQ(pmsg.to, rmsg.to);
        ASSERT_EQ(pmsg.count, 2u);
        ASSERT_EQ(pmsg.sender().unpack(), rmsg.sender);
        ASSERT_EQ(pmsg.carried().unpack(), rmsg.carried);
        const bool lost = packed_rng.bernoulli(0.05);
        ASSERT_EQ(lost, ref_rng.bernoulli(0.05));
        if (!lost && packed.live(pmsg.to)) {
          const std::size_t pa = packed.receive(pmsg.to, pmsg, packed_rng);
          const std::size_t ra = reference.receive(rmsg.to, rmsg, ref_rng);
          ASSERT_EQ(pa, ra);
          if (pa == 0) ++deletions;
        }
      }
    }
    if (step % 512 == 511) {
      const auto victim = static_cast<NodeId>(churn_schedule.uniform(n));
      if (packed.live(victim)) {
        packed.kill(victim);
        reference.kill(victim);
        dead.push_back(victim);
      } else if (!dead.empty()) {
        packed.revive(dead.back(), packed_rng);
        reference.revive(dead.back(), ref_rng);
        dead.pop_back();
      }
    }
  }
  // The run must have exercised every interesting path.
  EXPECT_GT(sent, 10'000u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(deletions, 0u);
  // Full-state comparison, entry by entry and via the shared hash.
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(packed.live(u), reference.live(u)) << "node " << u;
    ASSERT_EQ(packed.degree(u), reference.degree(u)) << "node " << u;
    ASSERT_EQ(packed.view_entries(u), reference.view_entries(u))
        << "node " << u;
  }
  EXPECT_EQ(packed.fingerprint(), reference.fingerprint());
}

TEST(PackedView, DuplicationTagsBothPayloadEntriesDependent) {
  // At d(u) <= dL the initiator duplicates: both transmitted entries carry
  // the dependence tag and land tagged in the receiver's view (Fig 7.1).
  FlatSendForgetCluster cluster(16, SendForgetConfig{.view_size = 8,
                                                     .min_degree = 2});
  cluster.install_view(1, {2, 3});  // degree == dL -> duplication
  Rng rng(6);
  FlatPush msg;
  FlatInitiateResult result = FlatInitiateResult::kSelfLoop;
  while (result == FlatInitiateResult::kSelfLoop) {
    result = cluster.initiate(1, rng, msg);
  }
  ASSERT_EQ(result, FlatInitiateResult::kSentDuplicated);
  ASSERT_TRUE(msg.sender().dependent());
  ASSERT_TRUE(msg.carried().dependent());
  ASSERT_EQ(cluster.degree(1), 2u);  // slots kept
  const NodeId rx = 5;
  ASSERT_EQ(cluster.receive(rx, msg, rng), 2u);
  std::size_t dependent_entries = 0;
  for (const ViewEntry& e : cluster.view_entries(rx)) {
    if (e.dependent) ++dependent_entries;
  }
  EXPECT_EQ(dependent_entries, 2u);
}

}  // namespace
}  // namespace gossip
