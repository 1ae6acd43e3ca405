// SPEX network (paper Def. 3): a DAG of interconnected SPEX transducers
// with one source (the input transducer) and one sink (the output
// transducer).  Tapes are the edges; a tape is written by exactly one
// transducer output port and read by exactly one input port.
//
// Message delivery is one topological sweep (DESIGN.md §11): the sweep's
// document messages are handed to every node in ascending id order, one
// Transducer::OnSweep call per node, together with the control messages
// pending on the node's input tape(s) (sparse tapes, transducer.h); each
// emitted control lands in the consumer's pending buffer until the sweep
// reaches it.  A sweep of one document message is one round of the paper's
// "only one message in the network at a time"; the engine (run_core.h)
// chooses how many rounds a sweep carries, cutting sweeps only at the
// network's scope exits (sweep_cuts()).

#ifndef SPEX_SPEX_NETWORK_H_
#define SPEX_SPEX_NETWORK_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/thread_check.h"
#include "rpeq/ast.h"
#include "spex/transducer.h"

namespace spex {

namespace obs {
class ProfileAccumulator;
class TraceRecorder;
struct ProfileReport;
}

// A set of element labels, for compile-time facts about a network: which
// start tags an activation on a tape can precede, and where the network's
// sweeps are cut (Network::sweep_cuts).
struct LabelSet {
  bool any_element = false;  // every element label (a wildcard step)
  bool document = false;     // the document root, <$> / </$>
  std::vector<std::string> labels;  // sorted, unique; unused if any_element

  static LabelSet Document();
  // Every end tag: <$> and every element.
  static LabelSet All();
  // {label}, or every element for a wildcard step.
  static LabelSet Element(const std::string& label, bool wildcard);
  void Merge(const LabelSet& other);
  bool operator==(const LabelSet&) const = default;
  // True if the end tag `kind`/`name` closes an element of the set.
  bool ContainsEnd(EventKind kind, std::string_view name) const;
};

// Query provenance of one network node: the byte range of the rpeq
// sub-expression this transducer implements (into the original query text)
// plus its concrete syntax.  Recorded by the compiler; consumed by
// EXPLAIN/PROFILE and the annotated DOT rendering.
struct NodeProvenance {
  SourceSpan span;
  std::string fragment;
};

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Adds a transducer node; returns its id.  Nodes must be added in
  // topological order (the compiler does).
  int AddNode(std::unique_ptr<Transducer> transducer);

  // Allocates a new tape; returns its id.
  int NewTape();

  // Declares that `node` writes output port `out_port` to `tape`.
  void SetProducer(int tape, int node, int out_port);
  // Declares that `node` reads `tape` on input port `in_port`.
  void SetConsumer(int tape, int node, int in_port);

  // The one delivery entry (DESIGN.md §11): sweeps the network once in
  // ascending node id order from `node`, handing every node the sweep's
  // document messages `docs` (every tape carries all of them) with the
  // control messages pending on its input tapes, in one OnSweep call.
  // `controls`, if given, are the control messages of node `node` input
  // port `in_port`, stamped into `docs` (moved from; the vector's capacity
  // is recycled); `in_port` must then be an injection point: an input port
  // no earlier node writes (IN's port 0).  On return every message has been
  // fully processed and all pending buffers are drained.
  //
  // Correctness precondition (the engine enforces it): every node must
  // produce the tape one-round delivery would.  The transducers that share
  // RunContext::assignment read it as of their own round (round-stamped
  // bindings), which covers every read but VC's scope-exit check; the
  // engine therefore never sweeps a start tag and a later end tag in
  // sweep_cuts() together.  Nodes are added in topological order, so a
  // single ascending sweep sees every pending message; document payload
  // borrows (Message::DocumentRef) must stay valid until the call returns.
  void DeliverBatch(int node, int in_port, Documents docs,
                    std::vector<Control>* controls = nullptr);

  // The end tags at which some VC of the network may close an instance
  // scope and read its variable (DESIGN.md §11): the labels the
  // qualifiers' bases select, </$> for root and deferred scopes.  Recorded
  // by the compiler; empty for a network without qualifiers.
  void AddSweepCuts(const LabelSet& labels) { sweep_cuts_.Merge(labels); }
  const LabelSet& sweep_cuts() const { return sweep_cuts_; }

  // Attaches a span recorder (RunCore::AttachTrace): every node call of the
  // sweep records one span on track node+1.  Null detaches; with neither a
  // recorder nor a profiler attached the sweep pays one branch per node
  // call.
  void SetTraceRecorder(obs::TraceRecorder* recorder);

  // Attaches a per-node cost accumulator (RunCore::AttachProfiler, sampled
  // batches): every node call of the sweep is timed with the same clock
  // pair the trace span uses and recorded as that node's self time.  Null
  // detaches.
  void SetProfiler(obs::ProfileAccumulator* profiler);

  // Records the query provenance of `node` (see NodeProvenance).
  void SetProvenance(int node, SourceSpan span, std::string fragment);
  const NodeProvenance& provenance(int node) const {
    return nodes_[node].provenance;
  }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int tape_count() const { return static_cast<int>(tapes_.size()); }
  // Pending buffers of the sweep, assigned on the first delivery (0 before):
  // one per tape *live at once*, not one per tape — see AssignBuffers.
  int buffer_count() const { return static_cast<int>(buffers_.size()); }
  Transducer* node(int id) { return nodes_[id].transducer.get(); }
  const Transducer* node(int id) const { return nodes_[id].transducer.get(); }

  // Wiring of tape `id`, for plan renderers (-1 = unset end).
  struct TapeInfo {
    int producer_node = -1;
    int producer_port = -1;
    int consumer_node = -1;
    int consumer_port = -1;
  };
  TapeInfo tape_info(int id) const {
    const Tape& t = tapes_[id];
    return {t.producer_node, t.producer_port, t.consumer_node,
            t.consumer_port};
  }
  // Number of output ports `node` has wired (1 for most, 2 for SP).
  int out_degree(int node) const {
    return (nodes_[node].out_tapes[0] != -1 ? 1 : 0) +
           (nodes_[node].out_tapes[1] != -1 ? 1 : 0);
  }

  // First node whose name() equals `name`, or nullptr.
  Transducer* FindByName(const std::string& name);

  // Multi-line description: one "id: NAME  in:[tapes] out:[tapes]" per node.
  std::string Describe() const;

  // Graphviz DOT rendering of the network DAG (one box per transducer, one
  // edge per tape) — paste into `dot -Tsvg` to visualize Fig. 12-style
  // diagrams for arbitrary queries.  With a profile report the rendering is
  // heat-annotated: nodes are shaded and sized by self-time share, edges
  // weighted by message volume, and labels carry the provenance span — a
  // flame map of the run.  Label text is DOT-escaped.
  std::string ToDot() const { return ToDot(nullptr); }
  std::string ToDot(const obs::ProfileReport* report) const;

 private:
  struct Node {
    std::unique_ptr<Transducer> transducer;
    // out_tapes[port] = tape id (or -1)
    int out_tapes[2] = {-1, -1};
    int in_tapes[2] = {-1, -1};
    // Pending-buffer indices into buffers_ of the input ports and of the
    // consumers wired to the output ports (-1 = none, e.g. the sink's
    // dangling output); set by AssignBuffers.
    int in_buffers[2] = {-1, -1};
    int out_buffers[2] = {-1, -1};
    NodeProvenance provenance;
  };

  struct Tape {
    int producer_node = -1;
    int producer_port = -1;
    int consumer_node = -1;
    int consumer_port = -1;
  };

  // Gives the sweep its pending buffers by interval colouring over the
  // sweep order (called once, by the first DeliverBatch).  Tape t is live
  // over [producer, consumer] — closed, since a node reading one tape while
  // writing another needs both buffers at once — and an injection point
  // over [node, node].  Colouring the intervals greedily in ascending start
  // (node id) order, reusing any colour released so far, is optimal for
  // interval graphs: buffer_count() equals the largest number of tapes live
  // at any sweep position.  Two tapes of one node never share a buffer, so
  // no emission reallocates an input the node is walking.
  void AssignBuffers();

  // The attached recorder's clock, else the profiler's (instrumented_).
  int64_t ClockNs() const;

  // Pending buffer `index`, or null for -1 (a dangling output).
  std::vector<Control>* Buffer(int index) {
    return index == -1 ? nullptr : &buffers_[static_cast<size_t>(index)];
  }

  // Debug-mode single-thread guard: delivery binds to the first delivering
  // thread (see base/thread_check.h).  A network handed to a pool worker
  // must be built *and* driven there — the zero-copy payload borrowing is a
  // per-thread contract.
  ThreadAffinity affinity_;
  std::vector<Node> nodes_;
  std::vector<Tape> tapes_;
  // The sweep's pending control buffers (see AssignBuffers).  Steady state
  // reuses the vectors' capacity, so delivery allocates nothing per sweep.
  std::vector<std::vector<Control>> buffers_;
  obs::TraceRecorder* trace_recorder_ = nullptr;
  obs::ProfileAccumulator* profiler_ = nullptr;
  // True iff a trace recorder or profiler is attached — the one predicted
  // branch per node call when observation is off.
  bool instrumented_ = false;
  // Interned name of the node-call spans.
  int span_name_id_ = 0;
  LabelSet sweep_cuts_;
};

}  // namespace spex

#endif  // SPEX_SPEX_NETWORK_H_
