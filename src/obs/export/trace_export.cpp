#include "obs/export/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <utility>

namespace gossip::obs {

namespace {

std::string json_escape(std::string_view in) {
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

std::string hex_id(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

// Chrome-trace timestamps are microseconds; durations below print with
// fixed millinanosecond precision so the JSON stays locale-independent.
void write_us(std::ostream& out, double us) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  out << buf;
}

}  // namespace

TraceExporter::TraceExporter(TraceExportOptions options)
    : options_(options) {
  if (options_.round_microseconds <= 0.0) options_.round_microseconds = 1000.0;
}

void TraceExporter::add_profiler(const PhaseProfiler& profiler) {
  const auto merged = profiler.totals();
  std::vector<bool> coord(merged.size(), false);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    coord[i] = profiler.coordinator({static_cast<std::uint32_t>(i)});
  }

  for (std::size_t s = 0; s < profiler.shard_count(); ++s) {
    ShardPhases row;
    row.shard = s;
    row.coordinator = false;
    const auto totals = profiler.shard_totals(s);
    for (std::size_t i = 0; i < totals.size(); ++i) {
      if (coord[i] || totals[i].count == 0) continue;
      row.totals.push_back(totals[i]);
    }
    if (!row.totals.empty()) phase_rows_.push_back(std::move(row));
  }

  ShardPhases coordinator_row;
  coordinator_row.coordinator = true;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (!coord[i] || merged[i].count == 0) continue;
    coordinator_row.totals.push_back(merged[i]);
  }
  if (!coordinator_row.totals.empty()) {
    phase_rows_.push_back(std::move(coordinator_row));
  }
}

void TraceExporter::add_flight_events(const std::vector<FlightEvent>& events,
                                      std::size_t shard_count) {
  flight_shard_count_ = std::max(flight_shard_count_, shard_count);
  for (const FlightEvent& e : events) {
    if (flight_.size() >= options_.max_flight_events) {
      ++flight_truncated_;
      continue;
    }
    flight_.push_back(e);
  }
}

void TraceExporter::add_recorder(const FlightRecorder& recorder) {
  std::vector<FlightEvent> merged;
  for (std::size_t s = 0; s < recorder.shard_count(); ++s) {
    const auto events = recorder.shard_events(s);
    merged.insert(merged.end(), events.begin(), events.end());
  }
  // Canonical (round, shard, intra-shard) order; stable sort keeps each
  // shard's own chronology for equal keys.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     if (a.round != b.round) return a.round < b.round;
                     return a.shard < b.shard;
                   });
  add_flight_events(merged, recorder.shard_count());
}

void TraceExporter::write(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"sfgossip\","
         "\"schema\":\"chrome-trace\",\"flight_events\":"
      << flight_.size() << ",\"flight_truncated\":" << flight_truncated_
      << "},\"traceEvents\":[";
  bool first = true;
  auto sep = [&]() {
    if (!first) out << ',';
    first = false;
  };

  // pid layout: shards 0..N-1, coordinator row at pid N.
  std::size_t max_shard = flight_shard_count_;
  for (const auto& row : phase_rows_) {
    if (!row.coordinator) max_shard = std::max(max_shard, row.shard + 1);
  }
  const std::size_t coordinator_pid = max_shard;

  // Process/thread naming metadata.
  for (std::size_t s = 0; s < max_shard; ++s) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << s
        << ",\"tid\":0,\"args\":{\"name\":\"shard " << s << "\"}}";
    if (s < flight_shard_count_) {
      sep();
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << s
          << ",\"tid\":0,\"args\":{\"name\":\"messages\"}}";
    }
  }
  bool have_coordinator = false;
  for (const auto& row : phase_rows_) {
    if (row.coordinator) have_coordinator = true;
  }
  if (have_coordinator) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
        << coordinator_pid << ",\"tid\":0,\"args\":{\"name\":\"coordinator\"}}";
  }

  // Profiler spans: the profiler keeps totals, not timestamps, so each
  // row's phases are laid out back-to-back from ts=0.
  for (const auto& row : phase_rows_) {
    const std::size_t pid = row.coordinator ? coordinator_pid : row.shard;
    double cursor = 0.0;
    for (std::size_t i = 0; i < row.totals.size(); ++i) {
      const auto& t = row.totals[i];
      const std::size_t tid = i + 1;
      sep();
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"args\":{\"name\":\"phase:"
          << json_escape(t.name) << "\"}}";
      const double dur_us = static_cast<double>(t.nanos) / 1000.0;
      sep();
      out << "{\"name\":\"" << json_escape(t.name)
          << "\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"ts\":";
      write_us(out, cursor);
      out << ",\"dur\":";
      write_us(out, dur_us);
      out << ",\"args\":{\"count\":" << t.count << ",\"nanos\":" << t.nanos
          << "}}";
      cursor += dur_us;
    }
  }

  // Flight events: instants on each shard's "messages" track, 1us apart
  // within a (round, shard) run, plus flow arrows threading message ids.
  std::vector<double> ts(flight_.size(), 0.0);
  std::uint32_t run_round = 0;
  std::uint8_t run_shard = 0;
  double run_offset = 0.0;
  bool in_run = false;
  std::map<std::uint64_t, std::vector<std::size_t>> lifecycles;
  for (std::size_t i = 0; i < flight_.size(); ++i) {
    const FlightEvent& e = flight_[i];
    if (!in_run || e.round != run_round || e.shard != run_shard) {
      run_round = e.round;
      run_shard = e.shard;
      run_offset = 0.0;
      in_run = true;
    }
    double t = static_cast<double>(e.round) * options_.round_microseconds +
               run_offset;
    if (run_offset + 1.0 < options_.round_microseconds) run_offset += 1.0;
    ts[i] = t;
    if (e.message_id != 0) lifecycles[e.message_id].push_back(i);

    sep();
    out << "{\"name\":\"" << flight_event_kind_name(e.kind)
        << "\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
        << static_cast<unsigned>(e.shard) << ",\"tid\":0,\"ts\":";
    write_us(out, t);
    out << ",\"args\":{\"round\":" << e.round << ",\"node\":" << e.node
        << ",\"peer\":" << e.peer;
    if (e.message_id != 0) {
      out << ",\"id\":\"" << hex_id(e.message_id) << '"';
    }
    out << "}}";
  }

  // Flow events: a message with more than one recorded event gets an
  // arrow from its first event to its last (send -> deliver across
  // shards; duplicate -> deliver within one).
  for (const auto& [id, idxs] : lifecycles) {
    if (idxs.size() < 2) continue;
    const std::string idhex = hex_id(id);
    for (std::size_t k = 0; k < idxs.size(); ++k) {
      const std::size_t i = idxs[k];
      const FlightEvent& e = flight_[i];
      const char* ph = k == 0 ? "s" : (k + 1 == idxs.size() ? "f" : "t");
      sep();
      out << "{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"" << ph
          << "\",\"id\":\"" << idhex << "\",\"pid\":"
          << static_cast<unsigned>(e.shard) << ",\"tid\":0,\"ts\":";
      write_us(out, ts[i]);
      if (ph[0] == 'f') out << ",\"bp\":\"e\"";
      out << "}";
    }
  }

  out << "]}\n";
}

bool TraceExporter::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write(out);
  return out.good();
}

}  // namespace gossip::obs
