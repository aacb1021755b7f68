#include "markov/sparse_chain.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stack>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "markov/anderson.hpp"

namespace gossip::markov {

namespace {

// Below this many stored transitions a parallel dispatch costs more than
// the gather itself.
constexpr std::size_t kParallelTransitionThreshold = 1 << 15;

}  // namespace

SparseChain::SparseChain(std::size_t state_count) : row_sum_(state_count, 0.0) {}

void SparseChain::resize(std::size_t count) {
  if (count > row_sum_.size()) row_sum_.resize(count, 0.0);
}

void SparseChain::add(std::size_t from, std::size_t to, double prob) {
  assert(!finalized_);
  if (prob <= 0.0) return;
  resize(std::max(from, to) + 1);
  if (from == to) return;  // self-loops are implicit
  from_.push_back(static_cast<std::uint32_t>(from));
  to_.push_back(static_cast<std::uint32_t>(to));
  prob_.push_back(prob);
  row_sum_[from] += prob;
}

std::size_t SparseChain::add_edge(std::size_t from, std::size_t to) {
  assert(!finalized_);
  resize(std::max(from, to) + 1);
  if (from == to) return kNoSlot;
  from_.push_back(static_cast<std::uint32_t>(from));
  to_.push_back(static_cast<std::uint32_t>(to));
  prob_.push_back(0.0);
  return prob_.size() - 1;
}

void SparseChain::build_csr() {
  const std::size_t n = state_count();
  const std::size_t nnz = prob_.size();
  in_row_ptr_.assign(n + 1, 0);
  for (std::size_t e = 0; e < nnz; ++e) ++in_row_ptr_[to_[e] + 1];
  for (std::size_t j = 0; j < n; ++j) in_row_ptr_[j + 1] += in_row_ptr_[j];
  in_src_.resize(nnz);
  in_prob_.resize(nnz);
  slot_to_pos_.resize(nnz);
  // Counting sort by destination; slots of a destination keep insertion
  // order, so every gather below is a fixed-order sum.
  std::vector<std::size_t> cursor(in_row_ptr_.begin(), in_row_ptr_.end() - 1);
  lower_bandwidth_ = 0;
  upper_bandwidth_ = 0;
  for (std::size_t e = 0; e < nnz; ++e) {
    const std::size_t pos = cursor[to_[e]]++;
    in_src_[pos] = from_[e];
    in_prob_[pos] = prob_[e];
    slot_to_pos_[e] = pos;
    if (from_[e] > to_[e]) {
      lower_bandwidth_ =
          std::max<std::size_t>(lower_bandwidth_, from_[e] - to_[e]);
    } else {
      upper_bandwidth_ =
          std::max<std::size_t>(upper_bandwidth_, to_[e] - from_[e]);
    }
  }
  finalized_ = true;
}

void SparseChain::finalize(double tolerance) {
  for (std::size_t s = 0; s < row_sum_.size(); ++s) {
    if (row_sum_[s] > 1.0 + tolerance) {
      throw std::runtime_error("sparse chain row exceeds probability 1");
    }
    row_sum_[s] = std::min(row_sum_[s], 1.0);
  }
  build_csr();
}

void SparseChain::finalize_structure() { build_csr(); }

void SparseChain::set_prob(std::size_t slot, double prob) {
  assert(finalized_);
  if (slot == kNoSlot) return;
  assert(slot < prob_.size());
  prob_[slot] = prob;
  in_prob_[slot_to_pos_[slot]] = prob;
}

void SparseChain::commit_values(double tolerance) {
  assert(finalized_);
  std::fill(row_sum_.begin(), row_sum_.end(), 0.0);
  for (std::size_t e = 0; e < prob_.size(); ++e) {
    row_sum_[from_[e]] += prob_[e];
  }
  for (double& row : row_sum_) {
    if (row > 1.0 + tolerance) {
      throw std::runtime_error("sparse chain row exceeds probability 1");
    }
    row = std::min(row, 1.0);
  }
}

void SparseChain::step_into(const std::vector<double>& pi,
                            std::vector<double>& out) const {
  assert(finalized_);
  assert(pi.size() == state_count());
  assert(&pi != &out);
  const std::size_t n = state_count();
  out.resize(n);
  const double* p = pi.data();
  double* o = out.data();
  auto gather = [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      double acc = p[j] * (1.0 - row_sum_[j]);
      for (std::size_t k = in_row_ptr_[j]; k < in_row_ptr_[j + 1]; ++k) {
        acc += p[in_src_[k]] * in_prob_[k];
      }
      o[j] = acc;
    }
  };
  if (in_prob_.size() >= kParallelTransitionThreshold) {
    // Grain is a pure function of n, so chunk boundaries — and therefore
    // bits — do not depend on the worker count.
    const std::size_t grain = std::max<std::size_t>(256, n / 64);
    ThreadPool::global().parallel_for(n, grain, gather);
  } else {
    gather(0, n);
  }
}

std::vector<double> SparseChain::step(const std::vector<double>& pi) const {
  std::vector<double> next;
  step_into(pi, next);
  return next;
}

SparseChain::StationaryResult SparseChain::stationary(
    std::vector<double> initial, double tolerance,
    std::size_t max_iterations, bool accelerated,
    obs::SolverSink* telemetry, std::string_view telemetry_name) const {
  assert(finalized_);
  const std::size_t n = state_count();
  if (n == 0) throw std::runtime_error("empty chain");
  StationaryResult result;
  std::vector<double> pi = std::move(initial);
  if (pi.empty()) {
    pi.assign(n, 1.0 / static_cast<double>(n));
  } else if (pi.size() != n) {
    throw std::invalid_argument("initial distribution has wrong size");
  }
  // Anderson-accelerated power iteration. The residual ||pi P - pi||_1 is
  // the same stopping criterion plain power iteration uses (there the
  // step change *is* the residual), so the accepted distribution is as
  // tight as an unaccelerated solve; the mixer only shortens the path.
  // Rejected or degenerate extrapolations fall back to the plain power
  // step, so the worst case matches unaccelerated convergence.
  AndersonMixer mixer(4);
  mixer.set_telemetry(telemetry, telemetry_name);
  std::vector<double> next(n);
  std::vector<double> f(n);
  std::vector<double> accel;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    step_into(pi, next);
    double total = 0.0;
    for (const double x : next) total += x;
    for (double& x : next) x /= total;
    double diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      f[s] = next[s] - pi[s];
      diff += std::abs(f[s]);
    }
    result.iterations = it + 1;
    result.residual = diff;
    if (telemetry != nullptr) {
      telemetry->on_iteration(telemetry_name, it + 1, diff);
    }
    if (diff < tolerance) {
      std::swap(pi, next);
      result.converged = true;
      break;
    }
    if (accelerated) {
      mixer.push(pi, f, diff);
      if (mixer.extrapolate(accel) && project_to_simplex(accel)) {
        std::swap(pi, accel);
        continue;
      }
    }
    std::swap(pi, next);
  }
  result.distribution = std::move(pi);
  return result;
}

SparseChain::StationaryResult SparseChain::stationary_direct() const {
  assert(finalized_);
  const std::size_t n = state_count();
  if (n == 0) throw std::runtime_error("empty chain");
  StationaryResult result;

  // Row i keeps columns [i - lower, i + upper]; eliminating state k only
  // touches rows and columns within the band of k, so nothing fills in
  // outside it. The diagonal slot is never read: GTH works on exit mass.
  const std::size_t lower = lower_bandwidth_;
  const std::size_t upper = upper_bandwidth_;
  const std::size_t width = lower + upper + 1;
  std::vector<double> band(n * width, 0.0);
  // Address of entry (i, j) for |i - j| within the band.
  auto at = [&](std::size_t i, std::size_t j) {
    return band.data() + i * width + lower + j - i;
  };
  for (std::size_t e = 0; e < prob_.size(); ++e) {
    *at(from_[e], to_[e]) += prob_[e];
  }

  // Reduction: censor state k out of the chain on {0..k}. exit[k] is k's
  // total mass into lower states; its row becomes the conditional exit
  // distribution, and every state i that can enter k inherits the routes
  // through it.
  std::vector<double> exit(n, 0.0);
  for (std::size_t k = n - 1; k > 0; --k) {
    const std::size_t j0 = k > lower ? k - lower : 0;
    const std::size_t i0 = k > upper ? k - upper : 0;
    double* row_k = at(k, j0);
    const std::size_t span = k - j0;
    double mass = 0.0;
    for (std::size_t j = 0; j < span; ++j) mass += row_k[j];
    if (!(mass > 0.0)) return result;  // k cannot reach state 0
    exit[k] = mass;
    for (std::size_t j = 0; j < span; ++j) row_k[j] /= mass;
    for (std::size_t i = i0; i < k; ++i) {
      const double into_k = *at(i, k);
      if (into_k == 0.0) continue;
      double* row_i = at(i, j0);
      for (std::size_t j = 0; j < span; ++j) row_i[j] += into_k * row_k[j];
    }
  }

  // Back-substitution: pi_k * exit_k balances the mass entering k in the
  // chain censored to {0..k}. Whenever the next entry would pass 2^500 all
  // earlier ones are scaled down by 2^-500, so nothing overflows; entries
  // that underflow are below double precision of the normalized answer.
  constexpr double kHuge = 0x1p+500;
  constexpr double kTiny = 0x1p-500;
  std::vector<double> pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t i0 = k > upper ? k - upper : 0;
    double entering = 0.0;
    for (std::size_t i = i0; i < k; ++i) entering += pi[i] * *at(i, k);
    while (entering > exit[k] * kHuge) {
      for (std::size_t i = 0; i < k; ++i) pi[i] *= kTiny;
      entering *= kTiny;
    }
    pi[k] = entering / exit[k];
  }
  double total = 0.0;
  for (const double x : pi) total += x;
  for (double& x : pi) x /= total;

  std::vector<double> next;
  step_into(pi, next);
  for (std::size_t s = 0; s < n; ++s) {
    result.residual += std::abs(next[s] - pi[s]);
  }
  result.iterations = 1;
  result.converged = true;
  result.distribution = std::move(pi);
  return result;
}

bool SparseChain::strongly_connected() const {
  const std::size_t n = state_count();
  if (n <= 1) return true;
  // Build adjacency and run iterative Tarjan (structure only).
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::size_t e = 0; e < prob_.size(); ++e) {
    if (prob_[e] > 0.0) adj[from_[e]].push_back(to_[e]);
  }
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> scc_stack;
  std::uint32_t next_index = 0;
  std::size_t scc_count = 0;
  struct Frame {
    std::uint32_t node;
    std::size_t child;
  };
  std::stack<Frame> call_stack;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push({root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      auto& frame = call_stack.top();
      if (frame.child < adj[frame.node].size()) {
        const std::uint32_t w = adj[frame.node][frame.child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          call_stack.push({w, 0});
        } else if (on_stack[w]) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[w]);
        }
      } else {
        const std::uint32_t v = frame.node;
        call_stack.pop();
        if (!call_stack.empty()) {
          auto& parent = call_stack.top();
          lowlink[parent.node] = std::min(lowlink[parent.node], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          ++scc_count;
          if (scc_count > 1) return false;
          std::uint32_t w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
          } while (w != v);
        }
      }
    }
  }
  return scc_count == 1;
}

bool SparseChain::doubly_stochastic(double tolerance) const {
  std::vector<double> column_sum(state_count(), 0.0);
  for (std::size_t s = 0; s < state_count(); ++s) {
    column_sum[s] += 1.0 - row_sum_[s];  // implied self-loop
  }
  for (std::size_t e = 0; e < prob_.size(); ++e) {
    column_sum[to_[e]] += prob_[e];
  }
  for (const double c : column_sum) {
    if (std::abs(c - 1.0) > tolerance) return false;
  }
  return true;
}

}  // namespace gossip::markov
