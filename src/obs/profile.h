// Per-node cost attribution for streaming runs (EXPLAIN/PROFILE layer,
// DESIGN.md §8).
//
// Two pieces:
//
//  * ProfileAccumulator — an allocation-free per-node time accumulator,
//    attached to a run (RunCore::AttachProfiler) and fed by the network's
//    sweep (the same per-node-call clock pair an attached trace recorder
//    uses for Chrome-trace spans).  Node calls of a sweep never nest, so a
//    call's time is its node's self time; self times partition the
//    instrumented wall time, which is what makes per-node time shares sum
//    to 100% by construction.
//
//  * ProfileReport — the post-run (or mid-run) attribution result: one row
//    per network node carrying the node's query provenance (the rpeq
//    sub-expression span it implements), message counts, stack/formula
//    peaks and time share, plus per-edge message volumes.  Rendered as a
//    sorted text table (ToTable), a static plan (ToExplainText) and JSON
//    (ToJson); the heat-annotated Graphviz rendering lives with the network
//    (Network::ToDot(const ProfileReport*)).
//
// This module is engine-agnostic plain data — the SPEX engines fill it in
// (see BuildProfileReport in spex/observe.h).

#ifndef SPEX_OBS_PROFILE_H_
#define SPEX_OBS_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace spex {
namespace obs {

// Accumulates per-node delivery counts and self times.  All state is
// preallocated at construction (node count is fixed once a network is
// compiled); Record never allocates.
class ProfileAccumulator {
 public:
  struct NodeCost {
    int64_t deliveries = 0;  // messages handed to the node
    int64_t self_ns = 0;
  };

  explicit ProfileAccumulator(int node_count)
      : origin_(std::chrono::steady_clock::now()),
        nodes_(static_cast<size_t>(node_count)) {}

  ProfileAccumulator(const ProfileAccumulator&) = delete;
  ProfileAccumulator& operator=(const ProfileAccumulator&) = delete;

  // Monotonic nanoseconds; any consistent clock works (the accumulator only
  // uses differences, so the network may pass trace-recorder timestamps).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // One timed node call of the sweep: `messages` deliveries in `ns`.
  void Record(int node, int64_t messages, int64_t ns) {
    NodeCost& cost = nodes_[static_cast<size_t>(node)];
    cost.deliveries += messages;
    cost.self_ns += ns;
  }

  const std::vector<NodeCost>& nodes() const { return nodes_; }

  int64_t total_self_ns() const {
    int64_t sum = 0;
    for (const NodeCost& c : nodes_) sum += c.self_ns;
    return sum;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<NodeCost> nodes_;
};

// One network node's attribution row.
struct ProfileNode {
  int id = 0;
  std::string name;      // transducer notation, e.g. "CL(_)", "VC(q0)"
  std::string fragment;  // query sub-expression this node implements
  uint32_t span_begin = 0;  // byte range of `fragment` in the query text
  uint32_t span_end = 0;
  std::string cost_class;  // predicted §V cost class (EXPLAIN)
  int64_t deliveries = 0;
  int64_t messages_in = 0;
  int64_t messages_out = 0;
  int64_t self_ns = 0;
  // Time of the node's calls.  Sweep calls never nest, so this equals
  // self_ns; the field keeps the JSON report's shape.
  int64_t total_ns = 0;
  double time_share = 0;  // self_ns / total_self_ns; shares sum to ~1
  int64_t depth_stack_peak = 0;
  int64_t condition_stack_peak = 0;
  int64_t formula_nodes_peak = 0;
  int64_t buffered_events_peak = 0;  // output transducer only
};

// One tape's traffic (producer -> consumer message volume).
struct ProfileEdge {
  int tape = 0;
  int from = 0;
  int to = 0;
  int64_t messages = 0;
};

struct ProfileReport {
  std::string query;  // concrete syntax the spans index into
  int64_t events = 0;
  int64_t total_messages = 0;  // sum of per-node messages_in
  int64_t total_self_ns = 0;
  int64_t formula_pool_high_water = 0;
  int64_t formula_pool_allocs = 0;
  // False for a static EXPLAIN (no run): time columns are all zero.
  bool timed = false;
  std::vector<ProfileNode> nodes;  // network id order
  std::vector<ProfileEdge> edges;

  // Text table sorted by self time (descending; network order when untimed),
  // one row per node plus a TOTAL row.
  std::string ToTable() const;
  // Static plan view: id, transducer, provenance, predicted cost class.
  std::string ToExplainText() const;
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace spex

#endif  // SPEX_OBS_PROFILE_H_
