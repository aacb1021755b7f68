#include "analysis/global_mc.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace gossip::analysis {

namespace {

// Removes one instance of `id` from a sorted multiset view.
void remove_instance(std::vector<NodeId>& view, NodeId id) {
  const auto it = std::lower_bound(view.begin(), view.end(), id);
  assert(it != view.end() && *it == id);
  view.erase(it);
}

// Inserts an id keeping the view sorted.
void insert_instance(std::vector<NodeId>& view, NodeId id) {
  view.insert(std::upper_bound(view.begin(), view.end(), id), id);
}

// Interned storage for global states. Each state is one flat record in a
// shared arena — `n` view lengths followed by the concatenated (sorted)
// view contents — deduplicated through an open-addressing hash table that
// compares records in place. No per-state heap allocations, no string
// keys: interning a candidate state touches only the reusable encode
// buffer and the arena.
class StateArena {
 public:
  explicit StateArena(std::size_t node_count) : n_(node_count) {}

  [[nodiscard]] std::size_t size() const { return begin_.size(); }

  // Interns the state, returning its dense index (appending a new record
  // when unseen).
  std::size_t intern(const GlobalState& state) {
    assert(state.size() == n_);
    encode_buffer_.clear();
    for (const auto& view : state) {
      encode_buffer_.push_back(static_cast<NodeId>(view.size()));
    }
    for (const auto& view : state) {
      encode_buffer_.insert(encode_buffer_.end(), view.begin(), view.end());
    }
    const std::uint64_t h = hash(encode_buffer_);

    if (table_.empty()) rehash(1024);
    const std::size_t mask = table_.size() - 1;
    std::size_t pos = static_cast<std::size_t>(h) & mask;
    while (table_[pos] != 0) {
      const std::size_t candidate = table_[pos] - 1;
      if (hashes_[candidate] == h && equals(candidate, encode_buffer_)) {
        return candidate;
      }
      pos = (pos + 1) & mask;
    }

    const std::size_t index = begin_.size();
    begin_.push_back(arena_.size());
    arena_.insert(arena_.end(), encode_buffer_.begin(), encode_buffer_.end());
    hashes_.push_back(h);
    table_[pos] = index + 1;
    if ((begin_.size() + 1) * 10 > table_.size() * 7) {
      rehash(table_.size() * 2);
    }
    return index;
  }

  // Decodes record `index` back into the nested-vector representation.
  [[nodiscard]] GlobalState decode(std::size_t index) const {
    GlobalState state(n_);
    const NodeId* record = arena_.data() + begin_[index];
    const NodeId* ids = record + n_;
    for (std::size_t u = 0; u < n_; ++u) {
      state[u].assign(ids, ids + record[u]);
      ids += record[u];
    }
    return state;
  }

 private:
  [[nodiscard]] static std::uint64_t hash(const std::vector<NodeId>& record) {
    // FNV-1a over the raw id values.
    std::uint64_t h = 1469598103934665603ULL;
    for (const NodeId v : record) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return h;
  }

  [[nodiscard]] bool equals(std::size_t index,
                            const std::vector<NodeId>& record) const {
    const std::size_t offset = begin_[index];
    const std::size_t end = index + 1 < begin_.size() ? begin_[index + 1]
                                                      : arena_.size();
    if (end - offset != record.size()) return false;
    return std::equal(record.begin(), record.end(), arena_.begin() + offset);
  }

  void rehash(std::size_t capacity) {
    table_.assign(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::size_t s = 0; s < begin_.size(); ++s) {
      std::size_t pos = static_cast<std::size_t>(hashes_[s]) & mask;
      while (table_[pos] != 0) pos = (pos + 1) & mask;
      table_[pos] = s + 1;
    }
  }

  std::size_t n_;
  std::vector<NodeId> arena_;        // concatenated records
  std::vector<std::size_t> begin_;   // state index -> arena offset
  std::vector<std::uint64_t> hashes_;
  std::vector<std::size_t> table_;   // open addressing; entry = index + 1
  std::vector<NodeId> encode_buffer_;
};

class GlobalMcBuilder {
 public:
  explicit GlobalMcBuilder(const GlobalMcParams& params)
      : p_(params), arena_(params.initial.node_count()) {
    validate();
  }

  GlobalMcResult build() {
    GlobalMcResult result;
    result.node_count = p_.initial.node_count();

    const GlobalState initial = state_from_graph(p_.initial);
    arena_.intern(initial);
    chain_.resize(1);

    // Breadth-first exploration; transitions are recorded as states are
    // expanded.
    for (std::size_t s = 0; s < arena_.size(); ++s) {
      if (arena_.size() > p_.max_states) {
        result.exploration_complete = false;
        break;
      }
      expand(s);
    }
    result.exploration_complete =
        result.exploration_complete && arena_.size() <= p_.max_states;

    chain_.resize(arena_.size());
    chain_.finalize();
    result.states.reserve(arena_.size());
    for (std::size_t s = 0; s < arena_.size(); ++s) {
      result.states.push_back(arena_.decode(s));
    }
    result.strongly_connected =
        result.exploration_complete && chain_.strongly_connected();
    result.doubly_stochastic =
        result.exploration_complete && chain_.doubly_stochastic();

    if (result.exploration_complete && p_.compute_stationary) {
      result.stationary = chain_.stationary({}, p_.stationary_tolerance,
                                            p_.max_stationary_iterations);
      finalize_statistics(result);
    }
    result.chain = std::move(chain_);
    return result;
  }

 private:
  void validate() const {
    p_.config.validate();
    if (p_.loss < 0.0 || p_.loss >= 1.0) {
      throw std::invalid_argument("loss must be in [0, 1)");
    }
    if (p_.initial.node_count() < 2) {
      throw std::invalid_argument("need at least 2 nodes");
    }
    for (NodeId u = 0; u < p_.initial.node_count(); ++u) {
      const auto d = p_.initial.out_degree(u);
      if (d % 2 != 0) {
        throw std::invalid_argument("initial outdegrees must be even");
      }
      if (d > p_.config.view_size) {
        throw std::invalid_argument("initial view exceeds capacity");
      }
    }
  }

  // Enumerates all transformations out of state `s` with exact
  // probabilities; anything not emitted stays as an implicit self-loop.
  // All working states live in reusable member buffers — a full expansion
  // performs no steady-state allocations.
  void expand(std::size_t s) {
    base_ = arena_.decode(s);
    const std::size_t n = base_.size();
    const double cap = static_cast<double>(p_.config.view_size);
    const double pair_slots = cap * (cap - 1.0);

    for (NodeId u = 0; u < n; ++u) {
      const auto& view = base_[u];
      if (view.size() < 2) continue;  // only self-loop actions possible

      const bool duplicate = view.size() <= p_.config.min_degree;

      // Distinct id values with multiplicities: the view is sorted, so
      // runs enumerate them without any per-view map.
      for (std::size_t i = 0; i < view.size();) {
        const NodeId target = view[i];
        std::size_t ri = i;
        while (ri < view.size() && view[ri] == target) ++ri;
        const auto m_target = static_cast<double>(ri - i);
        for (std::size_t j = 0; j < view.size();) {
          const NodeId carried = view[j];
          std::size_t rj = j;
          while (rj < view.size() && view[rj] == carried) ++rj;
          const double m_carried =
              static_cast<double>(rj - j) - (target == carried ? 1.0 : 0.0);
          j = rj;
          const double favorable = m_target * m_carried;
          if (favorable <= 0.0) continue;
          const double p_pick =
              favorable / pair_slots / static_cast<double>(n);

          // Sender-side step (identical whether the message is lost).
          after_send_ = base_;
          if (!duplicate) {
            remove_instance(after_send_[u], target);
            remove_instance(after_send_[u], carried);
          }

          if (p_.loss > 0.0) {
            emit(s, after_send_, p_pick * p_.loss);
          }

          // Receive step at `target` (which may be u itself; the view used
          // is the post-send one — steps execute in order).
          delivered_ = after_send_;
          auto& receiver = delivered_[target];
          if (receiver.size() + 2 <= p_.config.view_size) {
            insert_instance(receiver, u);
            insert_instance(receiver, carried);
          }
          // else: deletion — ids dropped, view unchanged.
          emit(s, delivered_, p_pick * (1.0 - p_.loss));
        }
        i = ri;
      }
    }
  }

  void emit(std::size_t from, const GlobalState& to_state, double prob) {
    if (prob <= 0.0) return;
    // §7.1: partitioned membership graphs are excluded from G; edges
    // leading to them become self-loops.
    if (!weakly_connected(to_state)) return;
    const std::size_t to = arena_.intern(to_state);
    if (to >= chain_.state_count()) chain_.resize(arena_.size());
    chain_.add(from, to, prob);
  }

  // Weak connectivity of the membership graph (self-edges do not connect).
  [[nodiscard]] bool weakly_connected(const GlobalState& state) {
    const std::size_t n = state.size();
    parent_.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
    auto find = [&](std::size_t x) {
      while (parent_[x] != x) {
        parent_[x] = parent_[parent_[x]];
        x = parent_[x];
      }
      return x;
    };
    std::size_t components = n;
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : state[u]) {
        const std::size_t a = find(u);
        const std::size_t b = find(v);
        if (a != b) {
          parent_[a] = b;
          --components;
        }
      }
    }
    return components == 1;
  }

  [[nodiscard]] static bool is_simple_state(const GlobalState& state) {
    for (NodeId u = 0; u < state.size(); ++u) {
      const auto& view = state[u];
      for (std::size_t i = 0; i < view.size(); ++i) {
        if (view[i] == u) return false;                    // self-edge
        if (i > 0 && view[i] == view[i - 1]) return false; // parallel edge
      }
    }
    return true;
  }

  void finalize_statistics(GlobalMcResult& result) const {
    const auto& pi = result.stationary.distribution;
    const auto& states = result.states;
    const auto n_states = static_cast<double>(states.size());
    for (const double x : pi) {
      result.uniformity_deviation =
          std::max(result.uniformity_deviation, std::abs(x * n_states - 1.0));
    }

    // Uniformity restricted to simple states (exact Lemma 7.5 regime).
    double simple_mass = 0.0;
    for (std::size_t s = 0; s < states.size(); ++s) {
      if (is_simple_state(states[s])) {
        ++result.simple_state_count;
        simple_mass += pi[s];
      }
    }
    if (result.simple_state_count > 0) {
      const double mean =
          simple_mass / static_cast<double>(result.simple_state_count);
      for (std::size_t s = 0; s < states.size(); ++s) {
        if (!is_simple_state(states[s])) continue;
        result.simple_state_uniformity_deviation =
            std::max(result.simple_state_uniformity_deviation,
                     std::abs(pi[s] / mean - 1.0));
      }
    }

    // P(v in u.lv) under pi, for all ordered pairs u != v.
    const std::size_t n = result.node_count;
    std::vector<double> presence(n * n, 0.0);
    for (std::size_t s = 0; s < states.size(); ++s) {
      for (NodeId u = 0; u < n; ++u) {
        const auto& view = states[s][u];
        NodeId previous = kNilNode;
        for (const NodeId v : view) {
          if (v == previous) continue;  // presence, not multiplicity
          previous = v;
          presence[u * n + v] += pi[s];
        }
      }
    }
    double lo = 2.0;
    double hi = -1.0;
    double sum = 0.0;
    std::size_t pairs = 0;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u == v) continue;  // self-edges exempt (Lemma 7.6)
        const double p = presence[u * n + v];
        lo = std::min(lo, p);
        hi = std::max(hi, p);
        sum += p;
        ++pairs;
      }
    }
    const double mean = sum / static_cast<double>(pairs);
    result.edge_presence_spread = mean > 0.0 ? (hi - lo) / mean : 0.0;
  }

  GlobalMcParams p_;
  StateArena arena_;
  markov::SparseChain chain_;
  // expand() working buffers, reused across all expansions.
  GlobalState base_;
  GlobalState after_send_;
  GlobalState delivered_;
  std::vector<std::size_t> parent_;
};

}  // namespace

GlobalMcResult build_global_mc(const GlobalMcParams& params) {
  return GlobalMcBuilder(params).build();
}

GlobalState state_from_graph(const Digraph& graph) {
  GlobalState state(graph.node_count());
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const auto out = graph.out_neighbors(u);
    state[u].assign(out.begin(), out.end());
    std::sort(state[u].begin(), state[u].end());
  }
  return state;
}

Digraph graph_from_state(const GlobalState& state) {
  std::size_t edges = 0;
  for (const auto& view : state) edges += view.size();
  Digraph g(state.size(), edges);
  for (NodeId u = 0; u < state.size(); ++u) {
    for (const NodeId v : state[u]) {
      g.add_edge(u, v);
    }
  }
  return g;
}

}  // namespace gossip::analysis
