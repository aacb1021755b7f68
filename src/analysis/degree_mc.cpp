#include "analysis/degree_mc.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "markov/anderson.hpp"
#include "markov/sparse_chain.hpp"

namespace gossip::analysis {

namespace {

// Population-level quantities derived from the current stationary guess.
struct PopulationStats {
  double mean_out = 0.0;          // E[d]
  double second_factorial = 0.0;  // E[d(d-1)]
  double edge_factor = 0.0;       // E[d(d-1)] / E[d]  ("c2")
  double receiver_room = 1.0;     // P(room), receiver sampled ∝ indegree
  double initiator_dup = 0.0;     // P(initiator at dL | action fired)
};

class DegreeMcSolver {
 public:
  explicit DegreeMcSolver(const DegreeMcParams& params) : p_(params) {
    validate();
    enumerate_states();
    build_structure();
  }

  // Solves at the given loss rate; successive calls share the state space
  // and CSR pattern and warm-start from the previous solution.
  DegreeMcResult solve_at(double loss) {
    if (loss < 0.0 || loss >= 1.0) {
      throw std::invalid_argument("loss must be in [0, 1)");
    }
    last_loss_ = loss;
    const std::size_t n = states_.size();
    if (n == 0) throw std::runtime_error("empty degree MC state space");

    std::vector<double> pi = warm_pi_;
    if (pi.empty()) pi.assign(n, 1.0 / static_cast<double>(n));

    DegreeMcResult result;
    markov::AndersonMixer mixer(std::max<std::size_t>(1, p_.anderson_depth));
    mixer.set_telemetry(p_.telemetry, "degree_mc_outer");
    std::vector<double> f(n);
    std::vector<double> accel;
    // The last iterate whose chain solved, and its solution: the fallback
    // when an extrapolated iterate makes the chain reducible.
    std::vector<double> last_pi;
    std::vector<double> last_g;

    for (std::size_t iter = 0; iter < p_.max_fixed_point_iterations; ++iter) {
      const PopulationStats stats = population_stats(pi);
      refresh_values(stats, loss);

      auto inner = chain_.stationary_direct();
      if (!inner.converged) {
        // Anderson's simplex projection can zero every o > dL entry: then
        // pz = 1, indegree can never fall, and the chain's only stationary
        // laws are bogus fixed points. Reject the iterate and take the
        // damped step from the last one that solved.
        if (last_g.empty()) {
          throw std::runtime_error("degree MC chain is reducible");
        }
        if (p_.telemetry != nullptr) {
          p_.telemetry->on_event("degree_mc_outer", "reducible_step",
                                 result.fixed_point_iterations);
        }
        mixer.reset();
        for (std::size_t k = 0; k < n; ++k) {
          pi[k] = 0.5 * (last_pi[k] + last_g[k]);
        }
        continue;
      }
      ++result.stationary_iterations;
      result.stationary_residual = inner.residual;
      if (p_.telemetry != nullptr) {
        p_.telemetry->on_iteration("degree_mc_inner",
                                   result.stationary_iterations,
                                   inner.residual);
      }
      std::vector<double>& g = inner.distribution;

      double residual = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        f[k] = g[k] - pi[k];
        residual += std::abs(f[k]);
      }
      result.fixed_point_iterations = result.stationary_iterations;
      result.fixed_point_residual = residual;
      if (p_.telemetry != nullptr) {
        p_.telemetry->on_iteration("degree_mc_outer",
                                   result.fixed_point_iterations, residual);
      }

      if (residual < p_.fixed_point_tolerance) {
        // Adopt the exact stationary distribution of the final chain so
        // that is_stationary holds for the reported parameters.
        pi = std::move(g);
        result.converged = true;
        break;
      }

      bool accelerated = false;
      if (p_.acceleration == DegreeMcAcceleration::kAnderson) {
        mixer.push(pi, f, residual);
        accelerated = mixer.extrapolate(accel) &&
                      markov::project_to_simplex(accel);
      }
      last_pi = pi;
      last_g = g;
      if (accelerated) {
        std::swap(pi, accel);
      } else {
        // Damped step: the paper-faithful update, and the Anderson
        // fallback whenever the extrapolation declines or degenerates.
        if (p_.telemetry != nullptr) {
          p_.telemetry->on_event("degree_mc_outer", "damped_step",
                                 result.fixed_point_iterations);
        }
        for (std::size_t k = 0; k < n; ++k) {
          pi[k] = 0.5 * (pi[k] + g[k]);
        }
      }
    }

    finalize(result, std::move(pi));
    warm_pi_ = result.stationary;
    return result;
  }

  // §6.5 transient: evolve the chain from (dL, 0) under steady-state
  // population parameters.
  JoinerTrajectory trajectory(std::size_t rounds) {
    if (p_.min_degree < 2) {
      throw std::invalid_argument("joiner analysis requires dL >= 2");
    }
    if (p_.fixed_sum_degree) {
      throw std::invalid_argument("joiner analysis needs the general chain");
    }
    const DegreeMcResult steady = solve_at(p_.loss);
    const PopulationStats stats = population_stats(steady.stationary);
    refresh_values(stats, p_.loss);
    const auto steps_per_round = static_cast<std::size_t>(
        std::max(1.0, std::round(1.0 / scale_)));

    std::vector<double> pi(states_.size(), 0.0);
    const std::size_t start = state_at(p_.min_degree, 0);
    if (start == kOutside) {
      throw std::runtime_error("joiner start state missing from chain");
    }
    pi[start] = 1.0;

    JoinerTrajectory trajectory;
    std::vector<double> scratch(pi.size());
    auto record = [&] {
      double out = 0.0;
      double in = 0.0;
      for (std::size_t k = 0; k < states_.size(); ++k) {
        out += pi[k] * states_[k].out;
        in += pi[k] * states_[k].in;
      }
      trajectory.expected_out.push_back(out);
      trajectory.expected_in.push_back(in);
    };
    record();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t step = 0; step < steps_per_round; ++step) {
        chain_.step_into(pi, scratch);
        std::swap(pi, scratch);
      }
      record();
    }
    return trajectory;
  }

 private:
  static constexpr std::size_t kOutside = static_cast<std::size_t>(-1);

  // Per-state transition slots in the frozen CSR pattern; kNoSlot marks
  // structurally absent edges (self-loops and truncation exits).
  struct StateSlots {
    std::size_t a_gain = markov::SparseChain::kNoSlot;  // (o', i+1)
    std::size_t a_keep = markov::SparseChain::kNoSlot;  // (o', i)
    std::size_t b_gain_drop = markov::SparseChain::kNoSlot;  // (o+2, i-1)
    std::size_t b_drop = markov::SparseChain::kNoSlot;       // (o,   i-1)
    std::size_t b_gain_keep = markov::SparseChain::kNoSlot;  // (o+2, i)
    std::size_t c_dup = markov::SparseChain::kNoSlot;        // (o,   i+1)
    std::size_t c_lose = markov::SparseChain::kNoSlot;       // (o,   i-1)
    bool room = false;       // o + 2 <= s
    bool duplicate = false;  // o <= dL
  };

  void validate() const {
    if (p_.view_size < 6 || p_.view_size % 2 != 0) {
      throw std::invalid_argument("view size s must be even and >= 6");
    }
    if (p_.min_degree % 2 != 0 || p_.min_degree + 6 > p_.view_size) {
      throw std::invalid_argument("dL must be even with dL <= s - 6");
    }
    if (p_.loss < 0.0 || p_.loss >= 1.0) {
      throw std::invalid_argument("loss must be in [0, 1)");
    }
    if (p_.anderson_depth == 0 &&
        p_.acceleration == DegreeMcAcceleration::kAnderson) {
      throw std::invalid_argument("anderson_depth must be >= 1");
    }
    if (p_.fixed_sum_degree) {
      if (*p_.fixed_sum_degree % 2 != 0 || *p_.fixed_sum_degree == 0) {
        throw std::invalid_argument("fixed sum degree must be even, positive");
      }
      if (p_.loss != 0.0 || p_.min_degree != 0) {
        throw std::invalid_argument(
            "fixed sum degree requires loss = 0 and dL = 0 (§6.1)");
      }
      if (*p_.fixed_sum_degree > p_.view_size) {
        // §6.1 requires dm <= s; larger dm would make deletions possible
        // and break the sum-degree invariant.
        throw std::invalid_argument("fixed sum degree must be <= s");
      }
    }
  }

  [[nodiscard]] std::size_t sum_cap() const {
    if (p_.fixed_sum_degree) return *p_.fixed_sum_degree;
    return p_.sum_degree_cap != 0 ? p_.sum_degree_cap : 3 * p_.view_size;
  }

  // Indegree-major order: every §6.2 event moves indegree by at most one
  // and outdegree by at most one level, so each transition stays within
  // one indegree level of the diagonal and the chain is banded (about
  // (s - dL)/2 + 1 states either side) for the direct solve.
  void enumerate_states() {
    const std::size_t s = p_.view_size;
    const std::size_t cap = sum_cap();
    if (p_.fixed_sum_degree) {
      const std::size_t dm = *p_.fixed_sum_degree;
      for (std::size_t o = p_.min_degree; o <= std::min(s, dm); o += 2) {
        push_state(o, (dm - o) / 2);
      }
      return;
    }
    for (std::size_t i = 0; p_.min_degree + 2 * i <= cap; ++i) {
      for (std::size_t o = p_.min_degree; o <= s && o + 2 * i <= cap; o += 2) {
        if (o == 0 && i == 0) continue;  // isolated node: unreachable (§6.2)
        push_state(o, i);
      }
    }
  }

  void push_state(std::size_t o, std::size_t i) {
    index_[key(o, i)] = states_.size();
    states_.push_back(DegreeState{static_cast<std::uint32_t>(o),
                                  static_cast<std::uint32_t>(i)});
  }

  [[nodiscard]] static std::uint64_t key(std::size_t o, std::size_t i) {
    return (static_cast<std::uint64_t>(o) << 32) | static_cast<std::uint64_t>(i);
  }

  // Index of state (o, i) or kOutside when outside the truncated space.
  [[nodiscard]] std::size_t state_at(std::size_t o, std::size_t i) const {
    const auto it = index_.find(key(o, i));
    return it == index_.end() ? kOutside : it->second;
  }

  // Compiles the sparsity pattern once. Which transitions exist depends
  // only on the state space and the thresholds — never on ℓ or on the
  // population statistics — so every outer iteration (and every ℓ-sweep
  // point) reuses this CSR structure and only rewrites values.
  void build_structure() {
    chain_.resize(states_.size());
    slots_.resize(states_.size());
    for (std::size_t k = 0; k < states_.size(); ++k) {
      const std::size_t o = states_[k].out;
      const std::size_t i = states_[k].in;
      StateSlots& sl = slots_[k];
      sl.room = o + 2 <= p_.view_size;
      sl.duplicate = o <= p_.min_degree;

      auto edge = [&](std::size_t to_o, std::size_t to_i) {
        const std::size_t to = state_at(to_o, to_i);
        // Transitions leaving the truncated space become self-loops
        // (§6.2): simply do not emit them; the mass stays put.
        if (to == kOutside) return markov::SparseChain::kNoSlot;
        return chain_.add_edge(k, to);
      };

      // Event A: the tagged node initiates a non-self-loop action.
      if (o >= 2) {
        const std::size_t o_after = sl.duplicate ? o : o - 2;
        sl.a_gain = edge(o_after, i + 1);
        sl.a_keep = edge(o_after, i);
      }

      // Events B and C require the tagged node to be referenced (i > 0).
      if (i == 0) continue;
      // Event B: the tagged node is the message *target*.
      if (sl.room) {
        sl.b_gain_drop = edge(o + 2, i - 1);
        sl.b_gain_keep = edge(o + 2, i);
      }
      sl.b_drop = edge(o, i - 1);
      // Event C: the tagged node's id is the *carried* id w.
      sl.c_dup = edge(o, i + 1);
      sl.c_lose = edge(o, i - 1);
    }
    chain_.finalize_structure();
  }

  [[nodiscard]] PopulationStats population_stats(
      const std::vector<double>& pi) const {
    PopulationStats st;
    double in_mass = 0.0;
    double in_room_mass = 0.0;
    double dup_mass = 0.0;
    const std::size_t s = p_.view_size;
    for (std::size_t k = 0; k < states_.size(); ++k) {
      const double w = pi[k];
      const double o = states_[k].out;
      const double i = states_[k].in;
      st.mean_out += w * o;
      st.second_factorial += w * o * (o - 1.0);
      in_mass += w * i;
      if (states_[k].out + 2 <= s) in_room_mass += w * i;
      if (states_[k].out == p_.min_degree) dup_mass += w * o * (o - 1.0);
    }
    st.edge_factor =
        st.mean_out > 0.0 ? st.second_factorial / st.mean_out : 0.0;
    st.receiver_room = in_mass > 0.0 ? in_room_mass / in_mass : 1.0;
    st.initiator_dup =
        st.second_factorial > 0.0 ? dup_mass / st.second_factorial : 0.0;
    return st;
  }

  // Rewrites all transition values for the given population statistics and
  // loss rate; the CSR pattern is untouched.
  void refresh_values(const PopulationStats& stats, double loss) {
    const double s = static_cast<double>(p_.view_size);
    const double pair_count = s * (s - 1.0);
    const double q_room = stats.receiver_room;
    const double pz = stats.initiator_dup;
    const double c2 = stats.edge_factor;

    // Scale all rates uniformly so that every row's outgoing probability
    // stays below 1 (uniform scaling leaves the stationary distribution
    // unchanged but larger steps mix faster). The exact per-state total
    // rate is (o(o-1) + 2 i c2) / pair_count.
    double max_rate = 0.0;
    for (const auto& st : states_) {
      const double rate = (static_cast<double>(st.out) * (st.out - 1.0) +
                           2.0 * static_cast<double>(st.in) * c2) /
                          pair_count;
      max_rate = std::max(max_rate, rate);
    }
    scale_ = 0.95 / std::max(max_rate, 1e-12);

    const double p_in_gain = (1.0 - loss) * q_room;
    for (std::size_t k = 0; k < states_.size(); ++k) {
      const StateSlots& sl = slots_[k];
      const double od = states_[k].out;
      const double id = states_[k].in;

      const double rate_a = scale_ * od * (od - 1.0) / pair_count;
      chain_.set_prob(sl.a_gain, rate_a * p_in_gain);
      chain_.set_prob(sl.a_keep, rate_a * (1.0 - p_in_gain));

      if (id == 0.0) continue;
      const double rate_edge = scale_ * id * c2 / pair_count;
      // Event B: with room the out-gain happens iff the message is not
      // lost; without room the b_gain_* slots are structurally absent and
      // the no-dup mass all lands on (o, i-1).
      const double p_out_gain = sl.room ? (1.0 - loss) : 0.0;
      chain_.set_prob(sl.b_gain_drop, rate_edge * (1.0 - pz) * p_out_gain);
      chain_.set_prob(sl.b_drop, rate_edge * (1.0 - pz) * (1.0 - p_out_gain));
      chain_.set_prob(sl.b_gain_keep, rate_edge * pz * p_out_gain);
      // Event C: z dup & delivered & receiver room adds an instance; z
      // no-dup & (lost or receiver full) removes the only instance.
      const double p_arrive = (1.0 - loss) * q_room;
      chain_.set_prob(sl.c_dup, rate_edge * pz * p_arrive);
      chain_.set_prob(sl.c_lose, rate_edge * (1.0 - pz) * (1.0 - p_arrive));
    }
    chain_.commit_values();
  }

  void finalize(DegreeMcResult& result, std::vector<double> pi) const {
    const PopulationStats stats = population_stats(pi);
    result.states = states_;
    result.out_pmf.assign(p_.view_size + 1, 0.0);
    std::size_t max_in = 0;
    for (const auto& st : states_) {
      max_in = std::max<std::size_t>(max_in, st.in);
    }
    result.in_pmf.assign(max_in + 1, 0.0);
    for (std::size_t k = 0; k < states_.size(); ++k) {
      result.out_pmf[states_[k].out] += pi[k];
      result.in_pmf[states_[k].in] += pi[k];
      result.expected_out += pi[k] * states_[k].out;
      result.expected_in += pi[k] * states_[k].in;
    }
    result.receiver_room_probability = stats.receiver_room;
    result.duplication_probability = stats.initiator_dup;
    result.deletion_probability =
        (1.0 - last_loss_) * (1.0 - stats.receiver_room);
    result.stationary = std::move(pi);
  }

  DegreeMcParams p_;
  std::vector<DegreeState> states_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  markov::SparseChain chain_;
  std::vector<StateSlots> slots_;
  double scale_ = 1.0;
  double last_loss_ = 0.0;
  std::vector<double> warm_pi_;
};

}  // namespace

DegreeMcResult solve_degree_mc(const DegreeMcParams& params) {
  return DegreeMcSolver(params).solve_at(params.loss);
}

std::vector<DegreeMcResult> solve_degree_mc_sweep(
    const DegreeMcParams& params, std::span<const double> losses) {
  DegreeMcSolver solver(params);
  std::vector<DegreeMcResult> results;
  results.reserve(losses.size());
  for (const double loss : losses) {
    results.push_back(solver.solve_at(loss));
  }
  return results;
}

JoinerTrajectory joiner_degree_trajectory(const DegreeMcParams& params,
                                          std::size_t rounds) {
  return DegreeMcSolver(params).trajectory(rounds);
}

}  // namespace gossip::analysis
