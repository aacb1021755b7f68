#include "obs/recovery.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

namespace gossip::obs {

namespace {

constexpr std::uint32_t lane_bit(RecoveryLane lane) {
  return 1u << static_cast<std::uint32_t>(lane);
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// JSON array of lane names for a lane bitmask: 5 -> ["degree","watchdog"].
void write_lane_names(std::ostream& out, std::uint32_t lanes) {
  out << '[';
  bool first = true;
  for (std::size_t l = 0;
       l < static_cast<std::size_t>(RecoveryLane::kLaneCount); ++l) {
    if ((lanes & (1u << l)) == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << recovery_lane_name(static_cast<RecoveryLane>(l)) << '"';
  }
  out << ']';
}

}  // namespace

const char* recovery_lane_name(RecoveryLane lane) {
  switch (lane) {
    case RecoveryLane::kDegree: return "degree";
    case RecoveryLane::kConnectivity: return "connectivity";
    case RecoveryLane::kWatchdog: return "watchdog";
    case RecoveryLane::kOracle: return "oracle";
    case RecoveryLane::kLaneCount: break;
  }
  return "unknown";
}

RecoveryTracker::RecoveryTracker(RecoveryConfig config) : config_(config) {}

void RecoveryTracker::declare_window(std::uint64_t begin, std::uint64_t end,
                                     std::string label) {
  RecoveryEpisode e;
  e.label = std::move(label);
  e.declared = true;
  e.begin = begin;
  e.heal = end;
  // Declared windows occupy the episodes_ prefix; undeclared excursions
  // are appended behind them as they open.
  episodes_.insert(episodes_.begin() +
                       static_cast<std::ptrdiff_t>(declared_count_),
                   std::move(e));
  ++declared_count_;
  window_begun_.insert(window_begun_.begin() +
                           static_cast<std::ptrdiff_t>(declared_count_ - 1),
                       0);
  window_healed_.insert(window_healed_.begin() +
                            static_cast<std::ptrdiff_t>(declared_count_ - 1),
                        0);
  if (open_undeclared_ >= 0) ++open_undeclared_;
}

void RecoveryTracker::bind_registry(MetricsRegistry* registry,
                                    std::size_t shard) {
  registry_ = registry;
  registry_shard_ = shard;
  if (registry_ == nullptr) return;
  degraded_gauge_ = registry_->gauge("recovery_degraded_lanes");
  episodes_gauge_ = registry_->gauge("recovery_episodes");
  unrecovered_gauge_ = registry_->gauge("recovery_unrecovered");
  last_rounds_gauge_ = registry_->gauge("recovery_last_rounds");
}

void RecoveryTracker::annotate(std::uint64_t round, std::string label) {
  if (series_ != nullptr) series_->annotate(round, std::move(label));
}

std::uint32_t RecoveryTracker::evaluate_lanes(
    std::uint64_t round, const FlatClusterProbe& probe,
    const FlatSendForgetCluster* cluster, const InvariantWatchdog* watchdog,
    const DriftMonitor* monitor) {
  std::uint32_t lanes = 0;

  // --- degree lane ---
  bool degree_out = false;
  if (probe.live_nodes > 0) {
    std::uint64_t structural = 0;
    for (std::size_t d = 0; d < probe.outdegree_hist.size(); ++d) {
      const bool below =
          round >= config_.warmup_rounds && d < config_.min_degree;
      const bool odd = (d % 2) != 0;
      if (below || odd) structural += probe.outdegree_hist[d];
    }
    if (static_cast<double>(structural) /
            static_cast<double>(probe.live_nodes) >
        config_.max_structural_fraction) {
      degree_out = true;
    }
    if (have_baseline_) {
      const double mean = probe.outdegree.mean;
      if (degree_mean_out_) {
        if (mean >= baseline_mean_ - config_.degree_recover) {
          degree_mean_out_ = false;
        }
      } else if (mean < baseline_mean_ - config_.degree_drop) {
        degree_mean_out_ = true;
      }
      if (degree_mean_out_) degree_out = true;
    }
    if (have_floor_) {
      const double mean = probe.outdegree.mean;
      if (floor_out_) {
        if (mean >= floor_value_ +
                        (config_.degree_drop - config_.degree_recover)) {
          floor_out_ = false;
        }
      } else if (mean < floor_value_) {
        floor_out_ = true;
      }
      if (floor_out_) degree_out = true;
    }
  }
  if (degree_out) lanes |= lane_bit(RecoveryLane::kDegree);

  // --- connectivity lane ---
  component_fraction_ = 1.0;
  if (probe.live_nodes > 0) {
    std::optional<std::uint64_t> largest = probe.largest_component;
    std::uint64_t live = probe.live_nodes;
    if (!largest.has_value() && cluster != nullptr) {
      const FlatClusterProbe census =
          census_.run(FlatViews(*cluster), /*components=*/true);
      largest = census.largest_component;
      live = census.live_nodes;
    }
    if (largest.has_value()) {
      if (live > 0) {
        component_fraction_ =
            static_cast<double>(*largest) / static_cast<double>(live);
      }
      if (component_fraction_ < config_.min_component_fraction) {
        lanes |= lane_bit(RecoveryLane::kConnectivity);
      }
    }
  }

  // --- watchdog lane (new violations since the previous probe) ---
  if (watchdog != nullptr) {
    const std::uint64_t v = watchdog->violation_count();
    if (v > last_watchdog_violations_) {
      lanes |= lane_bit(RecoveryLane::kWatchdog);
    }
    last_watchdog_violations_ = v;
  }

  // --- oracle lane ---
  if (monitor != nullptr) {
    bool out = monitor->overall_state() != DriftState::kOk;
    if (!out && !monitor->samples().empty()) {
      // Expected probes never transition states, so also read the raw
      // scores of the latest sample — a declared fault still counts as
      // degradation the overlay must recover from.
      for (const double score : monitor->samples().back().score) {
        if (score > 1.0) {
          out = true;
          break;
        }
      }
    }
    if (out) lanes |= lane_bit(RecoveryLane::kOracle);
  }
  return lanes;
}

void RecoveryTracker::observe(std::uint64_t round,
                              const FlatClusterProbe& probe,
                              const FlatSendForgetCluster* cluster,
                              const InvariantWatchdog* watchdog,
                              const DriftMonitor* monitor) {
  const std::uint32_t lanes =
      evaluate_lanes(round, probe, cluster, watchdog, monitor);
  degraded_lanes_ = lanes;

  // Is this round covered by a declared window (active, or healed but not
  // yet recovered)? Covered out-of-band probes never open undeclared
  // episodes — the window owns them.
  bool covered = false;
  for (std::size_t i = 0; i < declared_count_; ++i) {
    if (round >= episodes_[i].begin && !episodes_[i].recovered) {
      covered = true;
      break;
    }
  }

  // Calm-baseline update for the degree lane: only while fully in band
  // and outside every window, so faulted probes never poison it.
  if (round >= config_.warmup_rounds && !covered && lanes == 0 &&
      open_undeclared_ < 0) {
    baseline_mean_ = probe.outdegree.mean;
    have_baseline_ = true;
    // The floor is pinned at the FIRST calm baseline and never chases:
    // that is the whole point (see RecoveryConfig::degree_floor_fraction).
    if (!have_floor_ && config_.degree_floor_fraction > 0.0) {
      floor_value_ = config_.degree_floor_fraction * probe.outdegree.mean;
      have_floor_ = true;
    }
  }

  // --- declared windows ---
  for (std::size_t i = 0; i < declared_count_; ++i) {
    RecoveryEpisode& e = episodes_[i];
    if (round < e.begin || e.recovered) continue;
    if (window_begun_[i] == 0) {
      window_begun_[i] = 1;
      annotate(round, "fault:" + e.label + ":begin");
    }
    if (round >= e.heal && window_healed_[i] == 0) {
      window_healed_[i] = 1;
      annotate(round, "fault:" + e.label + ":heal");
    }
    if (lanes != 0) {
      e.degraded = true;
      e.lanes |= lanes;
    }
    if (round >= e.heal && lanes == 0) {
      e.recovered = true;
      e.recovered_round = round;
      annotate(round, "recovered:" + e.label);
    }
  }

  // --- undeclared excursions ---
  if (open_undeclared_ >= 0) {
    RecoveryEpisode& e =
        episodes_[static_cast<std::size_t>(open_undeclared_)];
    if (lanes != 0) {
      e.lanes |= lanes;
    } else {
      e.recovered = true;
      e.recovered_round = round;
      annotate(round, "recovered:undeclared");
      open_undeclared_ = -1;
    }
  } else if (lanes != 0 && !covered && round >= config_.warmup_rounds) {
    RecoveryEpisode e;
    e.label = "undeclared";
    e.begin = round;
    e.heal = round;
    e.degraded = true;
    e.lanes = lanes;
    episodes_.push_back(std::move(e));
    open_undeclared_ = static_cast<std::int64_t>(episodes_.size()) - 1;
    annotate(round, "degraded:undeclared");
  }

  if (registry_ != nullptr) {
    registry_->set(degraded_gauge_, registry_shard_,
                   static_cast<double>(std::popcount(lanes)));
    registry_->set(episodes_gauge_, registry_shard_,
                   static_cast<double>(episodes_.size()));
    registry_->set(unrecovered_gauge_, registry_shard_,
                   static_cast<double>(unrecovered()));
    std::uint64_t last_rounds = 0;
    for (const RecoveryEpisode& e : episodes_) {
      if (e.recovered) last_rounds = e.recovery_rounds();
    }
    registry_->set(last_rounds_gauge_, registry_shard_,
                   static_cast<double>(last_rounds));
  }
}

const RecoveryEpisode* RecoveryTracker::episode(
    const std::string& label) const {
  for (const RecoveryEpisode& e : episodes_) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

std::size_t RecoveryTracker::unrecovered() const {
  std::size_t count = 0;
  for (const RecoveryEpisode& e : episodes_) {
    if (e.degraded && !e.recovered) ++count;
  }
  return count;
}

std::string RecoveryTracker::report() const {
  std::ostringstream out;
  out << "recovery tracker: " << episodes_.size() << " episode(s), "
      << unrecovered() << " unrecovered";
  if (have_baseline_) out << ", calm mean degree " << baseline_mean_;
  out << '\n';
  for (const RecoveryEpisode& e : episodes_) {
    out << "  '" << e.label << "' [" << e.begin << ", " << e.heal << ") ";
    if (!e.degraded) {
      out << "never degraded";
      if (e.recovered) out << " (in band at round " << e.recovered_round << ")";
    } else if (e.recovered) {
      out << "recovered in " << e.recovery_rounds() << " round(s) at round "
          << e.recovered_round;
    } else {
      out << "NOT recovered";
    }
    if (e.lanes != 0) {
      out << " [lanes:";
      for (std::size_t l = 0;
           l < static_cast<std::size_t>(RecoveryLane::kLaneCount); ++l) {
        if ((e.lanes & (1u << l)) != 0) {
          out << ' ' << recovery_lane_name(static_cast<RecoveryLane>(l));
        }
      }
      out << ']';
    }
    out << '\n';
  }
  return out.str();
}

void RecoveryTracker::write_json(std::ostream& out) const {
  out << "{\"degraded_lanes\":" << degraded_lanes_
      << ",\"degraded_lane_names\":";
  write_lane_names(out, degraded_lanes_);
  out << ",\"unrecovered\":" << unrecovered()
      << ",\"component_fraction\":" << component_fraction_
      << ",\"baseline_mean_degree\":" << baseline_mean_
      << ",\"episodes\":[";
  for (std::size_t i = 0; i < episodes_.size(); ++i) {
    if (i != 0) out << ',';
    const RecoveryEpisode& e = episodes_[i];
    out << "{\"label\":\"" << json_escape(e.label) << "\",\"declared\":"
        << (e.declared ? "true" : "false") << ",\"begin\":" << e.begin
        << ",\"heal\":" << e.heal
        << ",\"degraded\":" << (e.degraded ? "true" : "false")
        << ",\"lanes\":" << e.lanes << ",\"lane_names\":";
    write_lane_names(out, e.lanes);
    out << ",\"recovered\":" << (e.recovered ? "true" : "false")
        << ",\"recovered_round\":" << e.recovered_round
        << ",\"recovery_rounds\":" << e.recovery_rounds() << '}';
  }
  out << "]}";
}

}  // namespace gossip::obs
