// Solver telemetry: a sink interface the iterative solvers (degree-MC
// outer loop and its direct inner solves, stationary power iteration,
// Anderson mixing, spectral power iteration) report per-iteration
// residuals and discrete events (history resets, cooldowns, fallbacks)
// into.
//
// Solvers take a nullable SolverSink*; a null sink costs one branch per
// iteration. Event names in use:
//   "history_reset"  AndersonMixer cleared its secant history (residual
//                    failed to decrease)
//   "cooldown"       extrapolation declined: fewer than two secant pairs
//   "degenerate"     extrapolation declined: ill-conditioned least squares
//   "damped_step"    degree-MC outer loop fell back to the damped update
//   "reducible_step" degree-MC outer loop rejected an extrapolated iterate
//                    whose chain was reducible and took the damped update
//                    from the last iterate that solved
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gossip::obs {

class SolverSink {
 public:
  virtual ~SolverSink() = default;
  // One iteration of the named solver loop with its residual norm.
  virtual void on_iteration(std::string_view solver, std::size_t iteration,
                            double residual) = 0;
  // A discrete solver event at the given iteration.
  virtual void on_event(std::string_view solver, std::string_view event,
                        std::size_t iteration) = 0;
};

// Counts callbacks but stores nothing: the baseline for overhead checks.
class NullSolverSink final : public SolverSink {
 public:
  void on_iteration(std::string_view, std::size_t, double) override {
    ++iterations_;
  }
  void on_event(std::string_view, std::string_view, std::size_t) override {
    ++events_;
  }
  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  [[nodiscard]] std::size_t events() const { return events_; }

 private:
  std::size_t iterations_ = 0;
  std::size_t events_ = 0;
};

// Records every callback; for tests and for bench_report --telemetry.
class RecordingSolverSink final : public SolverSink {
 public:
  struct Iteration {
    std::string solver;
    std::size_t iteration;
    double residual;
  };
  struct Event {
    std::string solver;
    std::string event;
    std::size_t iteration;
  };

  void on_iteration(std::string_view solver, std::size_t iteration,
                    double residual) override;
  void on_event(std::string_view solver, std::string_view event,
                std::size_t iteration) override;

  [[nodiscard]] const std::vector<Iteration>& iterations() const {
    return iterations_;
  }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t iteration_count(std::string_view solver) const;
  [[nodiscard]] std::size_t event_count(std::string_view solver,
                                        std::string_view event) const;
  // Residual of the last recorded iteration of `solver` (NaN if none).
  [[nodiscard]] double last_residual(std::string_view solver) const;
  void clear();

  // {"iterations":[{"solver":..,"i":..,"residual":..},...],
  //  "events":[{"solver":..,"event":..,"i":..},...]}
  void write_json(std::ostream& out) const;

 private:
  std::vector<Iteration> iterations_;
  std::vector<Event> events_;
};

}  // namespace gossip::obs
