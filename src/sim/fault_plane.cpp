#include "sim/fault_plane.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "core/packed_view.hpp"

namespace gossip::sim {

namespace {

bool in_range(NodeId lo, NodeId hi, NodeId u) { return u >= lo && u <= hi; }

// Whole-token parses: std::stoull and std::stod stop at the first character
// they cannot read, so "0.5x" would otherwise pass as 0.5. std::stod also
// reads "nan" and "inf"; no scenario value may be either.
unsigned long long parse_count(const std::string& text) {
  std::size_t consumed = 0;
  const unsigned long long value = std::stoull(text, &consumed);
  if (consumed != text.size()) throw std::invalid_argument("trailing text");
  return value;
}

double parse_finite(const std::string& text) {
  std::size_t consumed = 0;
  const double value = std::stod(text, &consumed);
  if (consumed != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument("not a finite number");
  }
  return value;
}

// "lo-hi" (inclusive) or a single id. An id above PackedViewEntry::kMaxId
// is rejected rather than narrowed, so it cannot wrap onto a range the
// file never named.
bool parse_id_range(const std::string& text, NodeId* lo, NodeId* hi) {
  const std::size_t dash = text.find('-');
  unsigned long long first = 0;
  unsigned long long last = 0;
  try {
    if (dash == std::string::npos) {
      first = last = parse_count(text);
    } else {
      first = parse_count(text.substr(0, dash));
      last = parse_count(text.substr(dash + 1));
    }
  } catch (const std::exception&) {
    return false;
  }
  if (last > PackedViewEntry::kMaxId || first > last) return false;
  *lo = static_cast<NodeId>(first);
  *hi = static_cast<NodeId>(last);
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition: return "partition";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kLossSpike: return "loss_spike";
    case FaultKind::kBurst: return "burst";
    case FaultKind::kDegradeShard: return "degrade";
  }
  return "unknown";
}

std::uint64_t FaultSchedule::first_begin() const {
  std::uint64_t first = UINT64_MAX;
  for (const FaultPhase& ph : phases) first = std::min(first, ph.begin);
  return first;
}

std::uint64_t FaultSchedule::last_end() const {
  std::uint64_t last = 0;
  for (const FaultPhase& ph : phases) last = std::max(last, ph.end);
  return last;
}

bool parse_scenario(std::istream& in, ScenarioFile* out, std::string* error) {
  out->schedule = FaultSchedule{};
  out->config.clear();
  out->path.clear();
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head)) continue;  // blank / comment-only line
    const std::string at = " (line " + std::to_string(line_no) + ")";
    if (head != "phase") {
      if (head == "regions") {
        if (!(tokens >> out->schedule.regions) ||
            out->schedule.regions == 0) {
          return fail(error, "regions needs a positive count" + at);
        }
        continue;
      }
      std::string value;
      if (!(tokens >> value)) {
        return fail(error, "config key '" + head + "' needs a value" + at);
      }
      out->config.push_back({head, value, line_no});
      continue;
    }
    FaultPhase ph;
    std::string kind;
    if (!(tokens >> kind >> ph.begin >> ph.end)) {
      return fail(error, "phase needs: phase <kind> <begin> <end>" + at);
    }
    if (ph.end <= ph.begin) {
      return fail(error, "phase end must be > begin" + at);
    }
    if (kind == "partition") {
      ph.kind = FaultKind::kPartition;
    } else if (kind == "blackout") {
      ph.kind = FaultKind::kBlackout;
    } else if (kind == "loss_spike") {
      ph.kind = FaultKind::kLossSpike;
    } else if (kind == "burst") {
      ph.kind = FaultKind::kBurst;
    } else if (kind == "degrade") {
      ph.kind = FaultKind::kDegradeShard;
    } else {
      return fail(error, "unknown phase kind '" + kind + "'" + at);
    }
    bool have_a = false;
    bool have_b = false;
    std::string kv;
    while (tokens >> kv) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return fail(error, "phase option '" + kv + "' is not key=value" + at);
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      try {
        if (key == "a") {
          have_a = parse_id_range(value, &ph.a_lo, &ph.a_hi);
          if (!have_a) return fail(error, "bad id range '" + value + "'" + at);
        } else if (key == "b") {
          have_b = parse_id_range(value, &ph.b_lo, &ph.b_hi);
          if (!have_b) return fail(error, "bad id range '" + value + "'" + at);
        } else if (key == "mode") {
          if (value == "symmetric") {
            ph.symmetric = true;
          } else if (value == "asymmetric") {
            ph.symmetric = false;
          } else {
            return fail(error, "mode must be symmetric|asymmetric" + at);
          }
        } else if (key == "region") {
          ph.region = parse_count(value);
          ph.region_scoped = true;
        } else if (key == "rate") {
          ph.rate = parse_finite(value);
        } else if (key == "burst_len") {
          ph.burst_len = parse_finite(value);
        } else if (key == "shard") {
          ph.shard = parse_count(value);
        } else if (key == "label") {
          ph.label = value;
        } else {
          return fail(error, "unknown phase option '" + key + "'" + at);
        }
      } catch (const std::exception&) {
        return fail(error, "bad value for '" + key + "'" + at);
      }
    }
    if (ph.kind == FaultKind::kPartition && (!have_a || !have_b)) {
      return fail(error, "partition needs a=lo-hi and b=lo-hi" + at);
    }
    if (ph.kind == FaultKind::kBlackout && !ph.region_scoped) {
      return fail(error, "blackout needs region=K" + at);
    }
    if (ph.label.empty()) {
      ph.label = std::string(fault_kind_name(ph.kind)) + "@" +
                 std::to_string(ph.begin);
    }
    out->schedule.phases.push_back(std::move(ph));
  }
  return true;
}

bool load_scenario_file(const std::string& path, ScenarioFile* out,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open scenario file " + path);
  if (!parse_scenario(in, out, error)) return false;
  out->path = path;
  return true;
}

FaultPlane::FaultPlane(FaultSchedule schedule, std::size_t node_count,
                       std::size_t shard_count)
    : schedule_(std::move(schedule)), node_count_(node_count) {
  if (node_count_ == 0) {
    throw std::invalid_argument("fault plane needs a nonempty cluster");
  }
  if (shard_count == 0) shard_count = 1;
  nodes_per_shard_ = (node_count_ + shard_count - 1) / shard_count;
  if (schedule_.regions == 0 || schedule_.regions > node_count_) {
    throw std::invalid_argument("regions must be in [1, node_count]");
  }
  first_begin_ = schedule_.first_begin();
  last_end_ = schedule_.last_end();
  burst_p_.assign(schedule_.phases.size(), 0.0);
  burst_r_.assign(schedule_.phases.size(), 0.0);
  for (std::size_t i = 0; i < schedule_.phases.size(); ++i) {
    const FaultPhase& ph = schedule_.phases[i];
    if (ph.end <= ph.begin) {
      throw std::invalid_argument("fault phase end must be > begin");
    }
    switch (ph.kind) {
      case FaultKind::kPartition:
        if (ph.a_hi >= node_count_ || ph.b_hi >= node_count_) {
          throw std::invalid_argument("partition ids out of range");
        }
        break;
      case FaultKind::kBlackout:
        if (ph.region >= schedule_.regions) {
          throw std::invalid_argument("blackout region out of range");
        }
        break;
      case FaultKind::kLossSpike:
        // Range checks are written so that NaN fails them.
        if (!(ph.rate >= 0.0 && ph.rate <= 1.0)) {
          throw std::invalid_argument("loss spike rate must be in [0, 1]");
        }
        if (ph.region_scoped && ph.region >= schedule_.regions) {
          throw std::invalid_argument("loss spike region out of range");
        }
        break;
      case FaultKind::kBurst: {
        if (!(ph.rate > 0.0 && ph.rate < 1.0)) {
          throw std::invalid_argument("burst rate must be in (0, 1)");
        }
        if (!(ph.burst_len >= 1.0 && std::isfinite(ph.burst_len))) {
          throw std::invalid_argument("burst_len must be finite and >= 1");
        }
        if (ph.region >= schedule_.regions) {
          throw std::invalid_argument("burst region out of range");
        }
        // Same stationarization as bursty_loss(): in-burst loss is total,
        // so pi_bad = rate; mean sojourn in BAD is burst_len = 1/r.
        const double r = 1.0 / ph.burst_len;
        const double p = r * ph.rate / (1.0 - ph.rate);
        if (p > 1.0) {
          throw std::invalid_argument("infeasible burst parameters");
        }
        burst_p_[i] = p;
        burst_r_[i] = r;
        break;
      }
      case FaultKind::kDegradeShard:
        if (!(ph.rate >= 0.0 && ph.rate <= 1.0)) {
          throw std::invalid_argument("degrade rate must be in [0, 1]");
        }
        if (ph.shard >= shard_count) {
          throw std::invalid_argument("degrade shard out of range");
        }
        break;
    }
  }
  if (schedule_.phases.empty()) {
    // Keep the idle fast path trivially false for an empty schedule.
    first_begin_ = UINT64_MAX;
    last_end_ = 0;
  }
}

FaultPlane::Context FaultPlane::make_context() const {
  Context ctx;
  ctx.burst_bad.assign(schedule_.phases.size(), 0);
  return ctx;
}

void FaultPlane::refresh(std::uint64_t round, Context& ctx) const {
  ctx.cached_round = round;
  ctx.active.clear();
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(schedule_.phases.size()); ++i) {
    if (schedule_.phases[i].active(round)) {
      ctx.active.push_back(i);
    } else if (schedule_.phases[i].kind == FaultKind::kBurst) {
      // A burst channel starts each activation fresh in the GOOD state.
      ctx.burst_bad[i] = 0;
    }
  }
}

bool FaultPlane::drop_slow(NodeId from, NodeId to, std::uint64_t round,
                           Rng& rng, Context& ctx) const {
  if (round != ctx.cached_round) refresh(round, ctx);
  if (ctx.active.empty()) return false;
  // Fixed evaluation order (schedule order, first hit wins) keeps the RNG
  // consumption — and hence the whole run — deterministic.
  for (const std::uint32_t i : ctx.active) {
    const FaultPhase& ph = schedule_.phases[i];
    switch (ph.kind) {
      case FaultKind::kPartition: {
        const bool a_to_b =
            in_range(ph.a_lo, ph.a_hi, from) && in_range(ph.b_lo, ph.b_hi, to);
        const bool b_to_a =
            in_range(ph.b_lo, ph.b_hi, from) && in_range(ph.a_lo, ph.a_hi, to);
        if (a_to_b || (ph.symmetric && b_to_a)) return true;
        break;
      }
      case FaultKind::kBlackout:
        if (region_of(from) == ph.region || region_of(to) == ph.region) {
          return true;
        }
        break;
      case FaultKind::kLossSpike:
        if (ph.region_scoped && region_of(from) != ph.region) break;
        if (rng.bernoulli(ph.rate)) return true;
        break;
      case FaultKind::kBurst: {
        if (region_of(from) != ph.region) break;
        // Advance this context's chain (exactly one draw per message from
        // the region, like GilbertElliottLoss::drop), then drop while BAD.
        std::uint8_t& bad = ctx.burst_bad[i];
        if (bad != 0) {
          if (rng.bernoulli(burst_r_[i])) bad = 0;
        } else {
          if (rng.bernoulli(burst_p_[i])) bad = 1;
        }
        if (bad != 0) return true;
        break;
      }
      case FaultKind::kDegradeShard:
        if (from / nodes_per_shard_ != ph.shard) break;
        if (rng.bernoulli(ph.rate)) return true;
        break;
    }
  }
  return false;
}

std::string FaultPlane::describe() const {
  std::ostringstream out;
  out << "fault plane: " << schedule_.regions << " region(s), "
      << schedule_.phases.size() << " phase(s)\n";
  for (const FaultPhase& ph : schedule_.phases) {
    out << "  [" << ph.begin << ", " << ph.end << ") "
        << fault_kind_name(ph.kind) << " '" << ph.label << "'";
    switch (ph.kind) {
      case FaultKind::kPartition:
        out << " a=" << ph.a_lo << "-" << ph.a_hi << " b=" << ph.b_lo << "-"
            << ph.b_hi << (ph.symmetric ? " symmetric" : " asymmetric");
        break;
      case FaultKind::kBlackout:
        out << " region=" << ph.region;
        break;
      case FaultKind::kLossSpike:
        out << " rate=" << ph.rate;
        if (ph.region_scoped) out << " region=" << ph.region;
        break;
      case FaultKind::kBurst:
        out << " region=" << ph.region << " rate=" << ph.rate
            << " burst_len=" << ph.burst_len;
        break;
      case FaultKind::kDegradeShard:
        out << " shard=" << ph.shard << " rate=" << ph.rate;
        break;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace gossip::sim
