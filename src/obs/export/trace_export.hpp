// Chrome-trace / Perfetto JSON export.
//
// Renders two data sources onto one timeline loadable in ui.perfetto.dev
// or chrome://tracing:
//  - PhaseProfiler aggregates become per-shard span tracks (pid = shard,
//    tid = phase). The profiler stores totals, not raw timestamps, so each
//    shard's phases are laid out back-to-back as synthetic complete ("X")
//    events whose durations are the measured totals; coordinator-only
//    phases land on a dedicated "coordinator" process row.
//  - FlightRecorder events become instant ("i") events on a per-shard
//    "messages" track at ts = round * round_microseconds, and message ids
//    ((shard << 48) | seq) with more than one recorded event are threaded
//    with flow ("s"/"f") arrows so a send on one shard visibly connects to
//    its deliver/drop on another.
//
// Output is deterministic for a fixed input: events are emitted in the
// recorder's canonical (round, shard, intra-shard) merge order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/oracle/flight_recorder.hpp"
#include "obs/profiler.hpp"

namespace gossip::obs {

struct TraceExportOptions {
  // Timeline scale: one simulation round spans this many microseconds on
  // the message tracks. Events within a round are spread at 1us steps.
  double round_microseconds = 1000.0;
  // Hard cap on emitted flight events (a 10M-node recorder ring can hold
  // far more than a trace viewer wants); excess events are dropped from
  // the tail and the count is noted in the trace metadata.
  std::size_t max_flight_events = 1u << 20;
};

class TraceExporter {
 public:
  explicit TraceExporter(TraceExportOptions options = {});

  // Copy the profiler's per-shard and coordinator totals into the trace.
  void add_profiler(const PhaseProfiler& profiler);

  // Append flight events (already in canonical order, as produced by
  // FlightRecorder::drain into a FlightTrace or directly).
  void add_flight_events(const std::vector<FlightEvent>& events,
                         std::size_t shard_count);
  // Unwrap a live recorder's rings and merge them in canonical
  // (round, shard, intra-shard) order.
  void add_recorder(const FlightRecorder& recorder);

  // Emit `{"traceEvents":[...]}` Chrome-trace JSON.
  void write(std::ostream& out) const;
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  struct ShardPhases {
    std::size_t shard = 0;
    bool coordinator = false;
    std::vector<PhaseProfiler::PhaseTotal> totals;
  };

  TraceExportOptions options_;
  std::vector<ShardPhases> phase_rows_;
  std::vector<FlightEvent> flight_;
  std::size_t flight_shard_count_ = 0;
  std::size_t flight_truncated_ = 0;
};

}  // namespace gossip::obs
