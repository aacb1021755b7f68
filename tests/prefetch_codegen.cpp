// Compiled to assembly by the prefetch_codegen ctest, never linked.
//
// FlatSendForgetCluster::prefetch_node is a pure hint, so no functional
// test notices if the compiler deletes it; only the round loop gets slower.
// The test compiles one out-of-line call and requires a prefetch
// instruction in the output.
#include "core/flat_send_forget.hpp"

void hint_receiver_row(const gossip::FlatSendForgetCluster& cluster,
                       gossip::NodeId u) {
  cluster.prefetch_node(u);
}
