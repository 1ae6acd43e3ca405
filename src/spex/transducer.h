// Base class for SPEX transducers (paper Def. 1).
//
// A SPEX transducer is a deterministic pushdown transducer with two stacks:
// a *depth* stack of marker symbols (counting tree levels and match scopes)
// and a *condition* stack of formulas.  Except for the output transducer,
// the two stacks are operated in lockstep, which is why every network
// transducer stays within the 1-DPDT class (Theorem IV.2).
//
// Each concrete transducer implements its transition table from the paper
// verbatim and reports the fired rule numbers through an optional trace,
// letting tests replay Figs. 4, 5 and 13 exactly.  A transducer has one
// entry point per sweep (OnSweep): the network's topological sweep
// (network.h) hands it the sweep's document messages together with the
// control messages pending on its input tape(s), and collects its
// emissions in the consumers' pending buffers through a BatchEmitter.
//
// Sparse tapes (DESIGN.md §11): every tape carries every document message
// of a sweep, in the same order, so a tape is stored as what it holds on
// top of them — its control messages (activations, determinations), each
// stamped with the offset of the document message it precedes.  The sweep
// keeps one array of document messages, which every node reads; a
// transducer emits only control messages, and forwarding a document is
// implicit (no transducer drops, reorders or alters one).  A sweep may
// carry several rounds (document messages, each preceded by its control
// messages), so each transducer can number the rounds itself.

#ifndef SPEX_SPEX_TRANSDUCER_H_
#define SPEX_SPEX_TRANSDUCER_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "spex/message.h"
#include "spex/observe.h"

namespace spex {

// A control message of a sparse tape: an activation or a determination,
// stamped with the offset (into the sweep's document messages) of the
// document message it precedes.  A stamp equal to the sweep's document
// count marks a control of the next round, which only a stand-alone
// caller delivers (a unit test feeding an activation alone); a network
// sweep never ends a tape with one.
struct Control {
  size_t at = 0;
  Message message;
};

// The document messages of one sweep, shared by every tape.
using Documents = std::span<const Message>;
// The control messages pending on one input tape, in tape order; the
// transducer may move them out.
using Controls = std::span<Control>;

// Emitter of the network's sweep (Network::DeliverBatch): appends emitted
// control messages to the pending buffers of the consumers wired to output
// ports 0/1 (null for a dangling port), stamped with the offset of the
// round being walked.  Every transducer emits its fresh messages before it
// forwards the message it is processing, so whatever it emits in round k
// precedes document message k.  Final and non-virtual, so emission inlines
// into the transducers' walks.
class BatchEmitter final {
 public:
  BatchEmitter(std::vector<Control>* out0, std::vector<Control>* out1)
      : out_{out0, out1} {}

  // Stamps the following emissions with document offset `at`.
  void At(size_t at) { at_ = at; }

  void Emit(int port, Message&& message) {
    std::vector<Control>* q = out_[port];
    if (q != nullptr) q->push_back({at_, std::move(message)});
  }

 private:
  std::vector<Control>* out_[2];
  size_t at_ = 0;
};

// Per-transducer resource accounting used to validate the §V bounds.
// Document messages count on every port, as if each tape held its own
// copy: n in per input port and n out per output port for a sweep of n.
struct TransducerStats {
  int64_t messages_in = 0;
  int64_t messages_out = 0;
  int64_t depth_stack_peak = 0;      // max entries on the depth stack
  int64_t condition_stack_peak = 0;  // max entries on the condition stack
  int64_t formula_nodes_peak = 0;    // largest formula (DAG nodes) handled
};

// When attached, records the rule numbers fired by a transducer, grouped per
// document message: the group for a document message contains the rules
// fired for the activation / determination messages since the previous
// document message plus the rule fired for the document message itself —
// exactly the presentation of Figs. 4, 5 and 13.
struct TransducerTrace {
  std::vector<std::vector<int>> groups;
  std::vector<int> pending;

  void Fire(int rule) { pending.push_back(rule); }
  void EndGroup() {
    groups.push_back(pending);
    pending.clear();
  }
  // "1,5 7 2 ..." — one comma-joined group per document message.
  std::string ToString() const;
};

class Transducer {
 public:
  // `name` is the paper's notation, e.g. "CH(a)", "CL(_)", "VC(q0)".
  // `input_ports`/`output_ports` are the tapes the transducer reads and
  // writes: 1/1 for most, 2 inputs for JO and IS, 2 outputs for SP, none
  // out for the sink OU.
  explicit Transducer(std::string name, int input_ports = 1,
                      int output_ports = 1)
      : name_(std::move(name)),
        input_ports_(input_ports),
        output_ports_(output_ports) {}
  virtual ~Transducer() = default;

  Transducer(const Transducer&) = delete;
  Transducer& operator=(const Transducer&) = delete;

  // Delivery (DESIGN.md §11): one sweep's document messages and the control
  // messages pending on input ports 0 and 1 (`in1` is empty for a one-input
  // transducer).  The accounting happens here, once: documents count n per
  // input port and n per output port, controls one each.
  void OnSweep(Documents docs, Controls in0, Controls in1, BatchEmitter* out);

  const std::string& name() const { return name_; }
  const TransducerStats& stats() const { return stats_; }
  int input_ports() const { return input_ports_; }
  int output_ports() const { return output_ports_; }

  void set_trace(TransducerTrace* trace) { trace_ = trace; }

 protected:
  // The transition function over one sweep.  Implementations must preserve
  // the per-message semantics exactly: each port's output tape must equal
  // what processing the messages one at a time would produce.  Untraced,
  // the forwarding transducers (IN after <$>, SP, JO, UN, IS, VF, VD) visit
  // only their control messages; with a rule trace attached every
  // transducer also visits every document message, fires its rule and
  // closes its trace group (WalkRounds).
  virtual void Sweep(Documents docs, Controls in0, Controls in1,
                     BatchEmitter* out) = 0;

  // The round walk of a one-input transducer: for each document message k,
  // the controls stamped k (`on_control(Message&)`), then the document
  // (`on_document(const Message&)`); then the controls of the next round.
  // Maintains round_ and the emitter's stamp; with a trace attached it
  // closes a group after every document message.
  template <typename OnControl, typename OnDocument>
  void WalkRounds(Documents docs, Controls in, BatchEmitter* out,
                  OnControl&& on_control, OnDocument&& on_document) {
    size_t c = 0;
    for (size_t k = 0; k < docs.size(); ++k) {
      out->At(k);
      for (; c < in.size() && in[c].at == k; ++c) on_control(in[c].message);
      on_document(docs[k]);
      ++round_;
      if (trace_ != nullptr) [[unlikely]] trace_->EndGroup();
    }
    out->At(docs.size());
    for (; c < in.size(); ++c) on_control(in[c].message);
  }

  // The control walk of a forwarding transducer: only the controls, each
  // with its round and stamp; documents cost nothing.  With a trace
  // attached it is the round walk, `on_document` firing each document
  // message's rule.
  template <typename OnControl, typename OnDocument>
  void WalkControls(Documents docs, Controls in, BatchEmitter* out,
                    OnControl&& on_control, OnDocument&& on_document) {
    if (trace_ != nullptr) [[unlikely]] {
      WalkRounds(docs, in, out, on_control, on_document);
      return;
    }
    const int64_t first = round_;
    for (Control& c : in) {
      out->At(c.at);
      round_ = first + static_cast<int64_t>(c.at);
      on_control(c.message);
    }
    round_ = first + static_cast<int64_t>(docs.size());
  }

  // The walk of a two-input transducer (JO, IS): both control lists merged
  // round by round.  `on_round(Controls left, Controls right)` gets the
  // controls of one round on each port, with the emitter stamped; untraced
  // it is called only for rounds that carry a control, traced for every
  // round, closing a trace group after each.  Both ports carry the same
  // rounds, complete (no controls of a next round).
  template <typename OnRound>
  void WalkPairedRounds(Documents docs, Controls left, Controls right,
                        BatchEmitter* out, OnRound&& on_round) {
    const bool every_round = trace_ != nullptr;
    size_t l = 0;
    size_t r = 0;
    for (size_t k = 0;; ++k) {
      if (!every_round) {
        // Skip to the next round that carries a control.
        if (l == left.size() && r == right.size()) break;
        k = std::min(l < left.size() ? left[l].at : docs.size(),
                     r < right.size() ? right[r].at : docs.size());
      } else if (k == docs.size()) {
        break;
      }
      assert(k < docs.size() && "a two-input sweep holds complete rounds");
      size_t l_end = l;
      while (l_end < left.size() && left[l_end].at == k) ++l_end;
      size_t r_end = r;
      while (r_end < right.size() && right[r_end].at == k) ++r_end;
      out->At(k);
      on_round(left.subspan(l, l_end - l), right.subspan(r, r_end - r));
      l = l_end;
      r = r_end;
      if (every_round) [[unlikely]] trace_->EndGroup();
    }
    round_ += static_cast<int64_t>(docs.size());
  }

  bool traced() const { return trace_ != nullptr; }
  void Fire(int rule) {
    if (trace_ != nullptr) trace_->Fire(rule);
  }
  void EmitTo(BatchEmitter* out, int port, Message&& message) {
    ++stats_.messages_out;
    out->Emit(port, std::move(message));
  }
  void NoteDepthStack(size_t size) {
    stats_.depth_stack_peak =
        std::max<int64_t>(stats_.depth_stack_peak, static_cast<int64_t>(size));
  }
  void NoteConditionStack(size_t size) {
    stats_.condition_stack_peak = std::max<int64_t>(
        stats_.condition_stack_peak, static_cast<int64_t>(size));
  }
  void NoteFormula(const Formula& f) {
    stats_.formula_nodes_peak =
        std::max(stats_.formula_nodes_peak, f.NodeCount());
  }

  TransducerStats stats_;
  // The round of the message being processed: the 1-based index of the
  // current document message (control messages belong to the round of the
  // document message they precede).  Maintained by the walks; the
  // transducers that read or write RunContext::assignment stamp their
  // bindings with it and read as of it (see Assignment).
  int64_t round_ = 1;

 private:
  std::string name_;
  int input_ports_;
  int output_ports_;
  TransducerTrace* trace_ = nullptr;
};

// Emission policy of the output transducer (§III.8).  With nested results
// (query class 3, e.g. `_*._`) strict document order and constant memory
// are mutually exclusive: the outermost result closes last, so everything
// nested inside it must wait.  The paper's OU stores a candidate "until all
// earlier candidates are determined" and reports constant memory on the
// DMOZ runs, which corresponds to kDetermination.
enum class OutputOrder : uint8_t {
  // Results are emitted strictly in document order of their start tags; a
  // decided candidate may have to wait for earlier, still-open ones
  // (worst-case buffering linear in the stream, §V).
  kDocumentStart,
  // A candidate starts emitting as soon as its formula is determined true;
  // nested fragments interleave (ResultBegin/End brackets nest, LIFO) and
  // decided candidates are never buffered: constant memory on streams of
  // bounded depth.
  kDetermination,
};

// Resource governor of one run (DESIGN.md §10).  Every limit is off (0) by
// default; with all limits off the engine's per-event cost is exactly one
// predictable branch.  A breached limit poisons the run with a
// kResourceExhausted / kDeadlineExceeded status: further events are dropped,
// and SpexEngine::FinalizeTruncated() can seal the stream to harvest a
// structured partial result (certain + speculative fragments).
struct EngineLimits {
  // Maximum bytes the output transducer may hold in speculative fragment
  // buffers (undecided candidates).  Bounds S_OU against adversarial
  // qualifiers that keep candidates undetermined for the whole stream.
  int64_t max_buffered_bytes = 0;
  // Maximum bytes of live formula-arena nodes on the engine's thread.  The
  // arena is thread-local and shared by every engine on the thread (see
  // formula.h), so this bounds the *thread's* formula memory; the breach is
  // attributed to the session that was running when it tripped.
  int64_t max_formula_bytes = 0;
  // Maximum element nesting depth of the delivered stream.
  int max_depth = 0;
  // Maximum document messages per run.
  int64_t max_events = 0;
  // Wall-clock budget of the run, measured from engine construction and
  // checked every 256 events (a steady-clock read per event would not be
  // hot-path free).
  int64_t deadline_ms = 0;

  bool enabled() const {
    return max_buffered_bytes > 0 || max_formula_bytes > 0 || max_depth > 0 ||
           max_events > 0 || deadline_ms > 0;
  }
};

// Run-wide configuration shared by all transducers of a network.
struct EngineOptions {
  // Optional external symbol table, shared with other processors (baselines
  // in differential benches, multiple engines over one stream).  When null
  // the run owns a private table (RunContext::symbol_table()).  Events
  // delivered to the network must carry labels interned by *this* table (or
  // kNoSymbol, which falls back to string comparison).
  SymbolTable* symbols = nullptr;
  // Output transducer emission policy, see OutputOrder.
  OutputOrder output_order = OutputOrder::kDocumentStart;
  // Progress watermark publication (every front-end; see observe.h).
  ProgressOptions progress;
  // Resource limits (see EngineLimits).  Unset costs one branch per event.
  EngineLimits limits;
  // Track the open-element path so SpexEngine::FinalizeTruncated() can seal
  // an incomplete stream even when no limit is configured (the engine pool
  // enables this for every session).  Implied by limits.enabled(); costs a
  // symbol push/pop per element event, allocation-free in steady state.
  bool track_open_elements = false;
  // Event-batch granularity of the feeding path (DESIGN.md §11): parsers,
  // the engine pool and the one-shot helpers hand events to the engine in
  // groups of up to this many via SpexEngine::OnEventBatch (values below 1
  // mean 1).  Batching is a feeding granularity only: every event goes
  // through the network's one sweep, which carries the whole batch except
  // where a qualifier scope may close after a start tag of the same sweep
  // (the sweep is cut there) or a byte limit is set (one event per sweep),
  // so results, statuses and counters are identical at every batch size.
  int batch_size = 64;
};

// State shared by the transducers of one network instance.
struct RunContext {
  EngineOptions options;
  VariableAllocator allocator;
  // The global monotone assignment of condition variables seen so far,
  // round-stamped (see Assignment).
  Assignment assignment;
  // Variables whose creator scope closed during the current round.  The
  // transducers rewrite their stored formulas as each determination passes
  // (the paper's update(c,v,beta), e.g. Fig. 2 rule 13), so nothing can
  // reference them once the round's messages have fully propagated, and the
  // engine erases their bindings after every sweep — this is what keeps
  // memory constant on unbounded streams.
  std::vector<VarId> retired_variables;
  // Live metrics registry of this run (see obs/metrics.h).  The run core
  // registers its counters at Start and the pull collectors over the
  // per-transducer stats on the first RunCore::metrics() call.
  obs::MetricRegistry metrics;
  // Hot-path publication handles (decision delay, the attached trace
  // recorder); filled in by the run core (see obs/observer.h).
  obs::RunObserver observer;
  // Interned label symbols for this run.  Label-testing transducers resolve
  // their predicate to a Symbol at construction time through this table, so
  // the per-event test is one integer compare.
  SymbolTable* symbol_table() {
    return options.symbols != nullptr ? options.symbols : &owned_symbols_;
  }

 private:
  SymbolTable owned_symbols_;
};

// Shared depth-stack marker symbols (Gamma_depth in the paper).
enum class DepthSymbol : uint8_t {
  kLevel,        // l : plain tree level
  kMatch,        // m : child transducer match-scope marker
  kScopeStart,   // s : closure/VC outermost scope marker
  kNestedScope,  // ns: closure nested scope marker
  kScopeEnd,     // e : closure interrupted-scope marker
};

const char* DepthSymbolName(DepthSymbol s);

}  // namespace spex

#endif  // SPEX_SPEX_TRANSDUCER_H_
