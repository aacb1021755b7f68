#include "graph/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace gossip {

namespace {

constexpr const char* kHeader = "membership-graph v1";

// The number of lines left in `in`, an upper bound on the edges still to
// read; 0, with nothing read, when the stream cannot tell its position.
std::size_t lines_left(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1)) return 0;
  std::size_t lines = 1;  // the last line may lack its '\n'
  char buffer[1 << 16];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    lines += static_cast<std::size_t>(
        std::count(buffer, buffer + in.gcount(), '\n'));
  }
  in.clear();
  if (!in.seekg(start)) {
    throw std::runtime_error("cannot seek back in the graph stream");
  }
  return lines;
}

}  // namespace

void write_graph(std::ostream& out, const Digraph& graph) {
  out << kHeader << '\n';
  out << "nodes " << graph.node_count() << '\n';
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    for (const NodeId v : graph.out_neighbors(u)) {
      out << u << ' ' << v << '\n';
    }
  }
}

std::string serialize_graph(const Digraph& graph) {
  std::ostringstream out;
  write_graph(out, graph);
  return out.str();
}

Digraph read_graph(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    throw std::invalid_argument("bad membership-graph header");
  }
  std::size_t n = 0;
  {
    if (!std::getline(in, line)) {
      throw std::invalid_argument("missing node count");
    }
    // The count must be plain decimal digits: no sign, no trailing text,
    // and no more nodes than NodeId can name, since ids are narrowed to it
    // below. Checked before the graph is allocated.
    std::istringstream fields(line);
    std::string keyword;
    std::string count;
    std::string trailing;
    if (!(fields >> keyword >> count) || keyword != "nodes" ||
        (fields >> trailing)) {
      throw std::invalid_argument("malformed node count line: " + line);
    }
    const char* const last = count.data() + count.size();
    const auto [end, error] = std::from_chars(count.data(), last, n);
    if (error != std::errc() || end != last || n > kNilNode) {
      throw std::invalid_argument("malformed node count line: " + line);
    }
  }
  Digraph graph(n, lines_left(in));
  std::size_t line_number = 2;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(fields >> u >> v)) {
      throw std::invalid_argument("malformed edge at line " +
                                  std::to_string(line_number));
    }
    std::string trailing;
    if (fields >> trailing) {
      throw std::invalid_argument("trailing data at line " +
                                  std::to_string(line_number));
    }
    if (u >= n || v >= n) {
      throw std::invalid_argument("edge endpoint out of range at line " +
                                  std::to_string(line_number));
    }
    graph.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return graph;
}

Digraph parse_graph(const std::string& text) {
  std::istringstream in(text);
  return read_graph(in);
}

void save_graph(const Digraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for write");
  write_graph(out, graph);
  if (!out) throw std::runtime_error("write to '" + path + "' failed");
}

Digraph load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "' for read");
  return read_graph(in);
}

}  // namespace gossip
