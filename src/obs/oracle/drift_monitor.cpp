#include "obs/oracle/drift_monitor.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace gossip::obs {

namespace {
constexpr std::size_t kChecks =
    static_cast<std::size_t>(DriftCheck::kCheckCount);
}  // namespace

const char* drift_check_name(DriftCheck check) {
  switch (check) {
    case DriftCheck::kDegreeOut: return "degree_out";
    case DriftCheck::kDegreeIn: return "degree_in";
    case DriftCheck::kDuplicationRate: return "duplication_rate";
    case DriftCheck::kDeletionRate: return "deletion_rate";
    case DriftCheck::kUniformity: return "uniformity";
    case DriftCheck::kIndependence: return "independence";
    case DriftCheck::kCheckCount: break;
  }
  return "unknown";
}

const char* drift_state_name(DriftState state) {
  switch (state) {
    case DriftState::kOk: return "ok";
    case DriftState::kWarn: return "warn";
    case DriftState::kViolation: return "violation";
  }
  return "unknown";
}

DriftMonitor::DriftMonitor(DriftMonitorConfig config) : config_(config) {
  config_.violation_ratio = std::max(1.0, config_.violation_ratio);
  config_.violation_streak = std::max<std::size_t>(1, config_.violation_streak);
  config_.clear_streak = std::max<std::size_t>(1, config_.clear_streak);
}

void DriftMonitor::begin_probe(std::uint64_t round, bool expected) {
  current_ = DriftSample{};
  current_.round = round;
  current_.expected = expected;
  in_probe_ = true;
  if (expected) ++expected_probes_;
  if (expected != last_expected_) {
    // Crossing the declared-window boundary resets the per-lane streaks:
    // an excursion that began inside the window must re-earn its streak
    // from scratch before it can escalate, and stale ok-streaks from
    // before the window don't count toward clearing after it.
    for (Lane& lane : lanes_) {
      lane.candidate_streak = 0;
      lane.ok_streak = 0;
    }
    last_expected_ = expected;
  }
}

void DriftMonitor::transition(Lane& lane, DriftCheck check, DriftState to,
                              double score) {
  const DriftTransition t{current_.round, check, lane.state, to, score};
  lane.state = to;
  if (log_.size() < config_.max_logged) log_.push_back(t);
  if (to == DriftState::kWarn) ++warns_;
  if (to == DriftState::kViolation) {
    ++violations_;
    if (on_violation_) on_violation_(t);
  }
}

void DriftMonitor::record(DriftCheck check, double score) {
  const auto i = static_cast<std::size_t>(check);
  current_.score[i] = score;
  Lane& lane = lanes_[i];
  if (current_.expected) {
    // Declared fault window: account the drift, don't escalate on it.
    lane.expected_peak = std::max(lane.expected_peak, score);
    return;
  }
  lane.peak = std::max(lane.peak, score);

  if (score <= 1.0) {
    lane.candidate_streak = 0;
    if (lane.state != DriftState::kOk &&
        ++lane.ok_streak >= config_.clear_streak) {
      transition(lane, check, DriftState::kOk, score);
      lane.ok_streak = 0;
    }
    return;
  }
  lane.ok_streak = 0;
  if (lane.state == DriftState::kOk) {
    transition(lane, check, DriftState::kWarn, score);
  }
  if (score >= config_.violation_ratio) {
    if (++lane.candidate_streak >= config_.violation_streak &&
        lane.state != DriftState::kViolation) {
      transition(lane, check, DriftState::kViolation, score);
    }
  } else {
    lane.candidate_streak = 0;
  }
}

void DriftMonitor::end_probe() {
  if (!in_probe_) return;
  if (current_.expected) {
    for (const double s : current_.score) {
      if (s > 1.0) {
        ++accounted_excursions_;
        break;
      }
    }
  }
  samples_.push_back(current_);
  in_probe_ = false;
}

DriftState DriftMonitor::overall_state() const {
  DriftState worst = DriftState::kOk;
  for (const Lane& lane : lanes_) {
    if (static_cast<int>(lane.state) > static_cast<int>(worst)) {
      worst = lane.state;
    }
  }
  return worst;
}

std::string DriftMonitor::report() const {
  std::ostringstream out;
  out << "drift monitor: " << samples_.size() << " probes, " << warns_
      << " warn transitions, " << violations_ << " violation transitions";
  if (expected_probes_ > 0) {
    out << ", " << expected_probes_ << " expected probes ("
        << accounted_excursions_ << " accounted excursions)";
  }
  out << '\n';
  for (std::size_t i = 0; i < kChecks; ++i) {
    out << "  " << drift_check_name(static_cast<DriftCheck>(i)) << ": "
        << drift_state_name(lanes_[i].state) << " (peak score "
        << lanes_[i].peak;
    if (lanes_[i].expected_peak > 0.0) {
      out << ", expected peak " << lanes_[i].expected_peak;
    }
    out << ")\n";
  }
  return out.str();
}

void DriftMonitor::write_json(std::ostream& out) const {
  out << "{\"violations\":" << violations_ << ",\"warns\":" << warns_
      << ",\"expected_probes\":" << expected_probes_
      << ",\"accounted_excursions\":" << accounted_excursions_
      << ",\"overall\":\"" << drift_state_name(overall_state()) << '"'
      << ",\"states\":{";
  for (std::size_t i = 0; i < kChecks; ++i) {
    if (i != 0) out << ',';
    out << '"' << drift_check_name(static_cast<DriftCheck>(i)) << "\":{"
        << "\"state\":\"" << drift_state_name(lanes_[i].state)
        << "\",\"peak_score\":" << lanes_[i].peak
        << ",\"expected_peak\":" << lanes_[i].expected_peak << '}';
  }
  out << "},\"transitions\":[";
  for (std::size_t i = 0; i < log_.size(); ++i) {
    if (i != 0) out << ',';
    const DriftTransition& t = log_[i];
    out << "{\"round\":" << t.round << ",\"check\":\""
        << drift_check_name(t.check) << "\",\"from\":\""
        << drift_state_name(t.from) << "\",\"to\":\""
        << drift_state_name(t.to) << "\",\"score\":" << t.score << '}';
  }
  out << "],\"samples\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i != 0) out << ',';
    const DriftSample& s = samples_[i];
    out << "{\"round\":" << s.round
        << ",\"expected\":" << (s.expected ? "true" : "false");
    for (std::size_t c = 0; c < kChecks; ++c) {
      out << ",\"" << drift_check_name(static_cast<DriftCheck>(c))
          << "\":" << s.score[c];
    }
    out << '}';
  }
  out << "]}";
}

}  // namespace gossip::obs
