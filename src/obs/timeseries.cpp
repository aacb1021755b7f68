#include "obs/timeseries.hpp"

#include <algorithm>
#include <ostream>

#include "obs/probe.hpp"

namespace gossip::obs {

namespace {

// Counter deltas can go backwards only through misuse (e.g. a registry
// reset between samples); clamp so a glitch cannot underflow to 2^64.
std::uint64_t delta(std::uint64_t now, std::uint64_t before) {
  return now >= before ? now - before : 0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
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

// RFC 4180 quoting: fields containing a comma, quote, or newline are
// wrapped in quotes with embedded quotes doubled.
std::string csv_escape(const std::string& in) {
  const bool needs_quoting =
      in.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return in;
  std::string out;
  out.reserve(in.size() + 2);
  out.push_back('"');
  for (char c : in) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

FlatClusterProbe probe_cluster(const FlatSendForgetCluster& cluster,
                               std::vector<std::uint32_t>* occurrences) {
  return ProbeSlices().run(FlatViews(cluster), /*degrees=*/true,
                           /*components=*/false, occurrences);
}

RoundTimeSeries::RoundTimeSeries(std::uint64_t stride)
    : stride_(std::max<std::uint64_t>(1, stride)) {}

void RoundTimeSeries::record(std::uint64_t round,
                             const DegreeSummary& outdegree,
                             const DegreeSummary& indegree,
                             std::size_t live_nodes,
                             double empty_slot_fraction,
                             const CumulativeCounters& cumulative) {
  RoundSample sample;
  sample.round = round;
  sample.live_nodes = live_nodes;
  sample.outdegree = outdegree;
  sample.indegree = indegree;
  sample.empty_slot_fraction = empty_slot_fraction;
  const std::uint64_t actions = delta(cumulative.actions, prev_.actions);
  const std::uint64_t sent = delta(cumulative.sent, prev_.sent);
  sample.duplication_rate =
      ratio(delta(cumulative.duplications, prev_.duplications), sent);
  sample.deletion_rate =
      ratio(delta(cumulative.deletions, prev_.deletions), sent);
  sample.self_loop_rate =
      ratio(delta(cumulative.self_loops, prev_.self_loops), actions);
  sample.loss_rate = ratio(delta(cumulative.lost, prev_.lost) +
                               delta(cumulative.to_dead, prev_.to_dead),
                           sent);
  sample.fault_rate =
      ratio(delta(cumulative.faulted, prev_.faulted), sent);
  prev_ = cumulative;
  samples_.push_back(sample);
}

void RoundTimeSeries::clear() {
  samples_.clear();
  annotations_.clear();
  prev_ = CumulativeCounters{};
}

void RoundTimeSeries::annotate(std::uint64_t round, std::string label) {
  annotations_.push_back({round, std::move(label)});
}

void RoundTimeSeries::write_csv(std::ostream& out) const {
  out << "round,live_nodes,out_mean,out_sd,out_min,out_max,"
         "in_mean,in_sd,in_min,in_max,empty_slot_fraction,"
         "duplication_rate,deletion_rate,self_loop_rate,loss_rate,"
         "fault_rate\n";
  for (const RoundSample& s : samples_) {
    out << s.round << ',' << s.live_nodes << ',' << s.outdegree.mean << ','
        << s.outdegree.sd << ',' << s.outdegree.min << ',' << s.outdegree.max
        << ',' << s.indegree.mean << ',' << s.indegree.sd << ','
        << s.indegree.min << ',' << s.indegree.max << ','
        << s.empty_slot_fraction << ',' << s.duplication_rate << ','
        << s.deletion_rate << ',' << s.self_loop_rate << ',' << s.loss_rate
        << ',' << s.fault_rate << '\n';
  }
}

void RoundTimeSeries::write_json(std::ostream& out) const {
  out << '[';
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i != 0) out << ',';
    const RoundSample& s = samples_[i];
    out << "{\"round\":" << s.round << ",\"live_nodes\":" << s.live_nodes
        << ",\"outdegree\":{\"mean\":" << s.outdegree.mean
        << ",\"sd\":" << s.outdegree.sd << ",\"min\":" << s.outdegree.min
        << ",\"max\":" << s.outdegree.max << '}'
        << ",\"indegree\":{\"mean\":" << s.indegree.mean
        << ",\"sd\":" << s.indegree.sd << ",\"min\":" << s.indegree.min
        << ",\"max\":" << s.indegree.max << '}'
        << ",\"empty_slot_fraction\":" << s.empty_slot_fraction
        << ",\"duplication_rate\":" << s.duplication_rate
        << ",\"deletion_rate\":" << s.deletion_rate
        << ",\"self_loop_rate\":" << s.self_loop_rate
        << ",\"loss_rate\":" << s.loss_rate
        << ",\"fault_rate\":" << s.fault_rate << '}';
  }
  out << ']';
}

void RoundTimeSeries::write_annotations_json(std::ostream& out) const {
  out << '[';
  for (std::size_t i = 0; i < annotations_.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"round\":" << annotations_[i].round << ",\"label\":\""
        << json_escape(annotations_[i].label) << "\"}";
  }
  out << ']';
}

void RoundTimeSeries::write_annotations_csv(std::ostream& out) const {
  out << "round,label\n";
  for (const SeriesAnnotation& a : annotations_) {
    out << a.round << ',' << csv_escape(a.label) << '\n';
  }
}

}  // namespace gossip::obs
