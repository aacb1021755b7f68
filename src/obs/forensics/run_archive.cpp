#include "obs/forensics/run_archive.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>

namespace gossip::obs::forensics {

namespace {

std::size_t name_index(const std::vector<std::string>& names,
                       std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return SnapshotSurface::npos;
}

std::uint64_t as_u64(double value) {
  return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value);
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotSurface

bool SnapshotSurface::fail(const std::string& message) {
  *this = SnapshotSurface{};
  last_error_ = message;
  return false;
}

bool SnapshotSurface::load(std::istream& in) {
  *this = SnapshotSurface{};
  std::string line;
  if (!std::getline(in, line)) {
    return fail("empty stream: missing schema header");
  }
  std::string error;
  JsonValue header;
  if (!parse_json(line, &header, &error)) {
    return fail("line 1: " + error);
  }
  if (header.get_string("schema") != "sfgossip.snapshot") {
    return fail("line 1: not a sfgossip.snapshot stream");
  }
  if (header.get_number("version", 0.0) != 1.0) {
    return fail("line 1: unsupported snapshot schema version");
  }
  stride_ = std::max<std::uint64_t>(1, as_u64(header.get_number(
                                           "snapshot_stride", 1.0)));
  if (const JsonValue* names = header.find("counters");
      names != nullptr && names->is_array()) {
    for (const JsonValue& n : names->items) {
      if (!n.is_string()) return fail("line 1: counter name not a string");
      counter_names_.push_back(n.string);
    }
  }
  if (const JsonValue* names = header.find("gauges");
      names != nullptr && names->is_array()) {
    for (const JsonValue& n : names->items) {
      if (!n.is_string()) return fail("line 1: gauge name not a string");
      gauge_names_.push_back(n.string);
    }
  }
  if (const JsonValue* hists = header.find("histograms");
      hists != nullptr && hists->is_array()) {
    for (const JsonValue& h : hists->items) {
      const std::string name = h.get_string("name");
      if (name.empty()) return fail("line 1: histogram without a name");
      histogram_names_.push_back(name);
    }
  }

  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string at = "line " + std::to_string(line_no) + ": ";
    JsonValue record;
    if (!parse_json(line, &record, &error)) return fail(at + error);
    const JsonValue* round_v = record.find("round");
    if (round_v == nullptr || !round_v->is_number()) {
      return fail(at + "snapshot record without a round");
    }
    const auto round = as_u64(round_v->number);
    if (!rounds_.empty() && round < rounds_.back()) {
      return fail(at + "snapshot rounds not ascending");
    }
    // Carry the previous row forward; delta-encoded records only name
    // metrics that changed since the last capture. The first (full) record
    // starts from zeros: metrics it omits genuinely are zero.
    std::vector<double> counters =
        counter_rows_.empty() ? std::vector<double>(counter_names_.size(), 0.0)
                              : counter_rows_.back();
    std::vector<double> gauges =
        gauge_rows_.empty() ? std::vector<double>(gauge_names_.size(), 0.0)
                            : gauge_rows_.back();
    std::vector<SurfaceHistogram> hists =
        histogram_rows_.empty()
            ? std::vector<SurfaceHistogram>(histogram_names_.size())
            : histogram_rows_.back();
    // A histogram omitted from this record saw no observations since the
    // previous one.
    for (SurfaceHistogram& h : hists) h.delta = 0.0;
    if (const JsonValue* cs = record.find("counters");
        cs != nullptr && cs->is_object()) {
      for (const auto& [name, entry] : cs->members) {
        const std::size_t j = counter_index(name);
        if (j == npos) return fail(at + "unknown counter '" + name + "'");
        counters[j] = entry.get_number("value", entry.number);
      }
    }
    if (const JsonValue* gs = record.find("gauges");
        gs != nullptr && gs->is_object()) {
      for (const auto& [name, entry] : gs->members) {
        const std::size_t j = gauge_index(name);
        if (j == npos) return fail(at + "unknown gauge '" + name + "'");
        if (!entry.is_number()) return fail(at + "gauge not a number");
        gauges[j] = entry.number;
      }
    }
    if (const JsonValue* hs = record.find("histograms");
        hs != nullptr && hs->is_object()) {
      for (const auto& [name, entry] : hs->members) {
        const std::size_t j = histogram_index(name);
        if (j == npos) return fail(at + "unknown histogram '" + name + "'");
        SurfaceHistogram& h = hists[j];
        h.total = entry.get_number("total", h.total);
        h.delta = entry.get_number("delta", 0.0);
        h.p50 = entry.get_number("p50", h.p50);
        h.p90 = entry.get_number("p90", h.p90);
        h.p99 = entry.get_number("p99", h.p99);
      }
    }
    rounds_.push_back(round);
    seqs_.push_back(as_u64(record.get_number("seq", 0.0)));
    counter_rows_.push_back(std::move(counters));
    gauge_rows_.push_back(std::move(gauges));
    histogram_rows_.push_back(std::move(hists));
  }
  if (rounds_.empty()) return fail("stream carries no snapshot records");
  return true;
}

bool SnapshotSurface::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);
  return load(in);
}

std::size_t SnapshotSurface::counter_index(std::string_view name) const {
  return name_index(counter_names_, name);
}
std::size_t SnapshotSurface::gauge_index(std::string_view name) const {
  return name_index(gauge_names_, name);
}
std::size_t SnapshotSurface::histogram_index(std::string_view name) const {
  return name_index(histogram_names_, name);
}

bool SnapshotSurface::has_counter(std::string_view name) const {
  return counter_index(name) != npos;
}

double SnapshotSurface::counter_at(std::size_t i,
                                   std::string_view name) const {
  const std::size_t j = counter_index(name);
  return j == npos ? 0.0 : counter_rows_[i][j];
}

double SnapshotSurface::gauge_at(std::size_t i, std::string_view name) const {
  const std::size_t j = gauge_index(name);
  return j == npos ? 0.0 : gauge_rows_[i][j];
}

const SurfaceHistogram* SnapshotSurface::histogram_at(
    std::size_t i, std::string_view name) const {
  const std::size_t j = histogram_index(name);
  return j == npos ? nullptr : &histogram_rows_[i][j];
}

std::size_t SnapshotSurface::index_at_round(std::uint64_t round) const {
  const auto it = std::upper_bound(rounds_.begin(), rounds_.end(), round);
  if (it == rounds_.begin()) return npos;
  return static_cast<std::size_t>(it - rounds_.begin()) - 1;
}

std::size_t SnapshotSurface::index_from_round(std::uint64_t round) const {
  const auto it = std::lower_bound(rounds_.begin(), rounds_.end(), round);
  if (it == rounds_.end()) return npos;
  return static_cast<std::size_t>(it - rounds_.begin());
}

double SnapshotSurface::counter_window_delta(std::string_view name,
                                             std::uint64_t begin,
                                             std::uint64_t end) const {
  const std::size_t j = counter_index(name);
  if (j == npos || rounds_.empty()) return 0.0;
  const std::size_t hi = index_at_round(end);
  if (hi == npos) return 0.0;
  const std::size_t lo = index_at_round(begin);
  const double before = lo == npos ? 0.0 : counter_rows_[lo][j];
  return counter_rows_[hi][j] - before;
}

double SnapshotSurface::gauge_window_min(std::string_view name,
                                         std::uint64_t begin,
                                         std::uint64_t end,
                                         double fallback) const {
  const std::size_t j = gauge_index(name);
  if (j == npos) return fallback;
  double best = fallback;
  bool any = false;
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    if (rounds_[i] < begin || rounds_[i] > end) continue;
    const double v = gauge_rows_[i][j];
    best = any ? std::min(best, v) : v;
    any = true;
  }
  return best;
}

double SnapshotSurface::gauge_window_max(std::string_view name,
                                         std::uint64_t begin,
                                         std::uint64_t end,
                                         double fallback) const {
  const std::size_t j = gauge_index(name);
  if (j == npos) return fallback;
  double best = fallback;
  bool any = false;
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    if (rounds_[i] < begin || rounds_[i] > end) continue;
    const double v = gauge_rows_[i][j];
    best = any ? std::max(best, v) : v;
    any = true;
  }
  return best;
}

// ---------------------------------------------------------------------------
// ChaosLog

bool ChaosLog::fail(const std::string& message) {
  *this = ChaosLog{};
  last_error_ = message;
  return false;
}

bool ChaosLog::load_value(const JsonValue& root) {
  if (!root.is_object()) return fail("chaos report is not a JSON object");
  scenario_ = root.get_string("scenario");
  const JsonValue* recovery = root.find("recovery");
  if (recovery == nullptr && root.find("episodes") != nullptr) {
    recovery = &root;  // bare RecoveryTracker JSON
  }
  if (recovery == nullptr) {
    return fail("chaos report carries no recovery section");
  }
  unrecovered_ = static_cast<std::size_t>(
      as_u64(recovery->get_number("unrecovered", 0.0)));
  baseline_mean_ = recovery->get_number("baseline_mean_degree", 0.0);
  if (const JsonValue* eps = recovery->find("episodes");
      eps != nullptr && eps->is_array()) {
    for (const JsonValue& e : eps->items) {
      EpisodeRecord rec;
      rec.label = e.get_string("label", "unlabeled");
      rec.declared = e.get_bool("declared");
      rec.begin = as_u64(e.get_number("begin"));
      rec.heal = as_u64(e.get_number("heal"));
      rec.degraded = e.get_bool("degraded");
      rec.recovered = e.get_bool("recovered");
      rec.recovered_round = as_u64(e.get_number("recovered_round"));
      rec.recovery_rounds = as_u64(e.get_number("recovery_rounds"));
      if (const JsonValue* lanes = e.find("lane_names");
          lanes != nullptr && lanes->is_array()) {
        for (const JsonValue& lane : lanes->items) {
          if (lane.is_string()) rec.lanes.push_back(lane.string);
        }
      }
      episodes_.push_back(std::move(rec));
    }
  }
  if (const JsonValue* oracle = root.find("oracle"); oracle != nullptr) {
    has_oracle_ = true;
    if (const JsonValue* prediction = oracle->find("prediction");
        prediction != nullptr) {
      predicted_loss_ = prediction->get_number("loss", 0.0);
    }
    const JsonValue* monitor = oracle->find("monitor");
    if (monitor == nullptr) monitor = oracle;  // bare monitor JSON
    if (const JsonValue* transitions = monitor->find("transitions");
        transitions != nullptr && transitions->is_array()) {
      for (const JsonValue& t : transitions->items) {
        if (t.get_string("to") != "violation") continue;
        OracleViolationRecord rec;
        rec.round = as_u64(t.get_number("round"));
        rec.check = t.get_string("check", "unknown");
        rec.from = t.get_string("from", "ok");
        rec.score = t.get_number("score", 0.0);
        violations_.push_back(std::move(rec));
      }
    }
  }
  if (const JsonValue* watchdog = root.find("watchdog"); watchdog != nullptr) {
    if (const JsonValue* log = watchdog->find("log");
        log != nullptr && log->is_array()) {
      for (const JsonValue& v : log->items) {
        WatchdogTripRecord rec;
        rec.kind = v.get_string("kind", "unknown");
        rec.round = as_u64(v.get_number("round"));
        rec.node = static_cast<std::int64_t>(v.get_number("node", -1.0));
        watchdog_trips_.push_back(std::move(rec));
      }
    }
  }
  return true;
}

bool ChaosLog::load(std::istream& in) {
  *this = ChaosLog{};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  std::string error;
  if (!parse_json(buffer.str(), &root, &error)) return fail(error);
  return load_value(root);
}

bool ChaosLog::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);
  return load(in);
}

// ---------------------------------------------------------------------------
// RunArchive

namespace {

bool propagate(bool ok, const std::string& detail, std::string* error) {
  if (!ok && error != nullptr) *error = detail;
  return ok;
}

}  // namespace

bool RunArchive::load_trace(std::istream& in, std::string* error) {
  has_trace_ = trace_.load(in);
  return propagate(has_trace_, trace_.last_error(), error);
}

bool RunArchive::load_trace_file(const std::string& path, std::string* error) {
  has_trace_ = trace_.load_file(path);
  return propagate(has_trace_, trace_.last_error(), error);
}

bool RunArchive::load_snapshots(std::istream& in, std::string* error) {
  has_snapshots_ = surface_.load(in);
  return propagate(has_snapshots_, surface_.last_error(), error);
}

bool RunArchive::load_snapshots_file(const std::string& path,
                                     std::string* error) {
  has_snapshots_ = surface_.load_file(path);
  return propagate(has_snapshots_, surface_.last_error(), error);
}

bool RunArchive::load_chaos(std::istream& in, std::string* error) {
  has_chaos_ = chaos_.load(in);
  return propagate(has_chaos_, chaos_.last_error(), error);
}

bool RunArchive::load_chaos_file(const std::string& path, std::string* error) {
  has_chaos_ = chaos_.load_file(path);
  return propagate(has_chaos_, chaos_.last_error(), error);
}

}  // namespace gossip::obs::forensics
