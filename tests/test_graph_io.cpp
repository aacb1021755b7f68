#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <istream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>

#include "graph/graph_gen.hpp"

namespace gossip {
namespace {

TEST(GraphIo, RoundTripPreservesGraph) {
  Rng rng(1);
  const auto g = random_out_regular(50, 5, rng);
  const auto copy = parse_graph(serialize_graph(g));
  EXPECT_TRUE(copy == g);
}

TEST(GraphIo, RoundTripPreservesMultiplicityAndSelfEdges) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(2, 2);
  const auto copy = parse_graph(serialize_graph(g));
  EXPECT_EQ(copy.edge_multiplicity(0, 1), 2u);
  EXPECT_EQ(copy.edge_multiplicity(2, 2), 1u);
  EXPECT_TRUE(copy == g);
}

TEST(GraphIo, EmptyGraph) {
  const Digraph g(4);
  const auto copy = parse_graph(serialize_graph(g));
  EXPECT_EQ(copy.node_count(), 4u);
  EXPECT_EQ(copy.edge_count(), 0u);
}

TEST(GraphIo, RejectsBadHeader) {
  EXPECT_THROW(parse_graph("wrong\nnodes 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_graph(""), std::invalid_argument);
}

TEST(GraphIo, RejectsMalformedCountAndEdges) {
  EXPECT_THROW(parse_graph("membership-graph v1\nvertices 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_graph("membership-graph v1\nnodes 2\n0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_graph("membership-graph v1\nnodes 2\n0 1 9\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_graph("membership-graph v1\nnodes 2\n0 5\n"),
               std::invalid_argument);
}

// Every count here is rejected before the graph is allocated: a sign,
// trailing text, or more nodes than a NodeId can name (ids would narrow).
TEST(GraphIo, RejectsOversizedSignedOrTrailingNodeCount) {
  for (const char* count :
       {"2x", "+2", "-1", "2 3", "0x10", "4294967296", "18446744073709551615",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_THROW(
        parse_graph(std::string("membership-graph v1\nnodes ") + count +
                    "\n0 1\n"),
        std::invalid_argument)
        << "nodes " << count;
  }
  // Whitespace around a plain count is still fine.
  const Digraph g = parse_graph("membership-graph v1\nnodes 3 \n2 1\n");
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_multiplicity(2, 1), 1u);
}

// A stream that can only be read forward, like a pipe: its position is
// unknown, so read_graph grows the arena as it goes instead of counting
// the lines first.
class ForwardOnlyBuffer : public std::streambuf {
 public:
  explicit ForwardOnlyBuffer(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

TEST(GraphIo, ReadsAStreamThatCannotSeek) {
  Rng rng(3);
  const auto g = random_out_regular(40, 4, rng);
  ForwardOnlyBuffer buffer(serialize_graph(g));
  std::istream in(&buffer);
  ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));
  EXPECT_TRUE(read_graph(in) == g);
  // A seekable stream counts the lines left and seeks back first.
  EXPECT_TRUE(parse_graph(serialize_graph(g) + "\n\n") == g);
}

TEST(GraphIo, FileRoundTrip) {
  Rng rng(2);
  const auto g = ring_with_chords(20, 2, rng);
  const std::string path = ::testing::TempDir() + "/graph_io_test.txt";
  save_graph(g, path);
  const auto copy = load_graph(path);
  EXPECT_TRUE(copy == g);
  std::remove(path.c_str());
}

TEST(GraphIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_graph("/nonexistent/dir/file.txt"), std::runtime_error);
}

}  // namespace
}  // namespace gossip
