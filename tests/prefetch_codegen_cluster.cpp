// Compiled to assembly by the prefetch_codegen_cluster ctest, never linked.
//
// sim::Cluster::prefetch_node is a pure hint, so no functional test notices
// if the compiler deletes it; only the round loop gets slower. The test
// compiles one out-of-line call and requires a prefetch instruction in the
// output. It is a separate source and test from prefetch_codegen, because a
// pass regex cannot count: a prefetch surviving in one function would mask
// a deleted one in the other.
#include "sim/cluster.hpp"

void hint_object_and_row(const gossip::sim::Cluster& cluster,
                         gossip::NodeId u) {
  cluster.prefetch_node(u);
}
