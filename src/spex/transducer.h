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
// entry point per sweep: the network's topological sweep (network.h) hands
// it the pending input sequence of its tape (OnBatch) — or of both its
// tapes, for the two-input JO and IS (OnPair) — and collects its emissions
// in the consumers' pending buffers through a BatchEmitter.  A sweep may
// carry several rounds (document messages, each preceded by its control
// messages); every tape carries every document message, so each transducer
// can number the rounds itself.

#ifndef SPEX_SPEX_TRANSDUCER_H_
#define SPEX_SPEX_TRANSDUCER_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "spex/message.h"
#include "spex/observe.h"

namespace spex {

// Emitter of the network's sweep (Network::DeliverBatch): routes emitted
// messages to the consumer nodes' pending buffers.  `port` selects the
// output tape (always 0 except for the split transducer, which also writes
// port 1).  Final and non-virtual, so emission inlines into the
// transducers' transition loops.
//
// Pass-through elision: most transducers forward most document messages
// unchanged, and the emitted object IS the input-buffer element (Process
// takes Message&& and EmitTo forwards the reference).  Emit detects that by
// address and defers such messages as a contiguous *run* over the input
// buffer instead of moving them out one by one.  Finish() then either swaps
// the whole input vector into the consumer's queue (the run covers the
// entire batch — zero per-message work) or bulk-moves the run.  A fresh
// message emitted to the run's port, or a consumed input message breaking
// contiguity, materializes the run first, so each port's output sequence is
// exactly the per-message emission order.
class BatchEmitter final {
 public:
  // `out0`/`out1` are the pending buffers of the consumers wired to output
  // ports 0/1 (null for a dangling port); `in` is the node's (first) input
  // buffer, owning the messages passed to OnBatch (the left ones passed to
  // OnPair).  The network never lets an input buffer double as an output
  // buffer of the same node.
  BatchEmitter(std::vector<Message>* out0, std::vector<Message>* out1,
               std::vector<Message>* in)
      : out_{out0, out1},
        in_(in),
        in_begin_(in->data()),
        in_end_(in->data() + in->size()) {}

  void Emit(int port, Message&& message) {
    if (&message == run_end_ && port == run_port_) {  // extend the run
      ++run_end_;
      return;
    }
    if (&message >= in_begin_ && &message < in_end_) {
      // Input message, but not contiguous with the active run (or a new
      // run): flush the old run and start a new one here.
      MaterializeRun();
      run_port_ = port;
      run_begin_ = &message;
      run_end_ = &message + 1;
      return;
    }
    // Fresh message (activation, determination, queued copy).  Only a
    // same-port emission has to flush the run — the ports' queues are
    // independent sequences.
    if (run_end_ != nullptr && port == run_port_) MaterializeRun();
    std::vector<Message>* q = out_[port];
    if (q != nullptr) q->push_back(std::move(message));
  }

  // Equivalent to Emit(port, std::move(messages[i])) for every i < count in
  // order, in O(1): the input range joins (or becomes) the deferred run.
  // `messages` must point into the input buffer.
  void Forward(int port, Message* messages, size_t count) {
    assert(messages >= in_begin_ && messages + count <= in_end_);
    if (messages != run_end_ || port != run_port_) {
      MaterializeRun();
      run_port_ = port;
      run_begin_ = messages;
      run_end_ = messages;
    }
    run_end_ += count;
  }

  // Called by the network after OnBatch returns: delivers the deferred run.
  // When the run is the whole input batch and the consumer's queue is empty
  // (single producer per queue — always, except after a same-port fresh
  // emission before the run), the vectors are swapped outright.
  void Finish() {
    if (run_begin_ == in_begin_ && run_end_ == in_end_ &&
        in_begin_ != in_end_) {
      std::vector<Message>* q = out_[run_port_];
      run_end_ = nullptr;
      if (q == nullptr) return;  // dangling port: batch is dropped
      if (q->empty()) {
        q->swap(*in_);
        return;
      }
      q->insert(q->end(), std::make_move_iterator(in_->begin()),
                std::make_move_iterator(in_->end()));
      return;
    }
    MaterializeRun();
  }

 private:
  void MaterializeRun() {
    if (run_end_ == nullptr) return;
    std::vector<Message>* q = out_[run_port_];
    if (q != nullptr) {
      q->insert(q->end(), std::make_move_iterator(run_begin_),
                std::make_move_iterator(run_end_));
    }
    run_end_ = nullptr;
  }

  std::vector<Message>* out_[2];
  std::vector<Message>* in_;
  Message* in_begin_;
  Message* in_end_;
  Message* run_begin_ = nullptr;
  Message* run_end_ = nullptr;  // null: no active run
  int run_port_ = 0;
};

// Per-transducer resource accounting used to validate the §V bounds.
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
  explicit Transducer(std::string name) : name_(std::move(name)) {}
  virtual ~Transducer() = default;

  Transducer(const Transducer&) = delete;
  Transducer& operator=(const Transducer&) = delete;

  // Delivery (DESIGN.md §11): processes the `count` messages pending on the
  // input tape in sequence order, emitting through `out`.  The accounting
  // happens here, once: a batch add of messages_in, or — with a rule trace
  // attached — one message at a time, so every document message closes its
  // trace group.
  void OnBatch(Message* messages, size_t count, BatchEmitter* out);

  // Delivery to a two-input transducer (JO, IS): the pending sequences of
  // both input tapes in one call.  Both hold the same rounds (every tape
  // carries every document message), so nothing is left over for the next
  // sweep.  Accounting as in OnBatch; with a rule trace attached the
  // transducer closes a group after each round (EndRound).
  void OnPair(Message* left, size_t left_count, Message* right,
              size_t right_count, BatchEmitter* out);

  const std::string& name() const { return name_; }
  const TransducerStats& stats() const { return stats_; }

  void set_trace(TransducerTrace* trace) { trace_ = trace; }

 protected:
  // The transition function over a message sequence, for one-input
  // transducers.  Implementations must preserve the per-message semantics
  // exactly: each port's output sequence must equal what processing the
  // messages one at a time would produce (OnBatch calls this with count 1
  // when tracing).
  virtual void ProcessBatch(Message* messages, size_t count,
                            BatchEmitter* out);
  // The transition function of a two-input transducer over both sequences.
  virtual void ProcessPair(Message* left, size_t left_count, Message* right,
                           size_t right_count, BatchEmitter* out);

  void Fire(int rule) {
    if (trace_ != nullptr) trace_->Fire(rule);
  }
  // Closes the trace group of the current round (two-input transducers,
  // after emitting the round's document message).
  void EndRound() {
    if (trace_ != nullptr) trace_->EndGroup();
  }
  // Takes Message&& so an input-buffer element forwarded unchanged reaches
  // BatchEmitter::Emit under its original address (pass-through elision);
  // callers copy explicitly (Message(m)) when they need a duplicate.
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
  // document message they precede).  Maintained by the transducers that
  // read or write RunContext::assignment, which stamp their bindings with it
  // and read as of it (see Assignment).
  int64_t round_ = 1;

 private:
  // The accounting of one delivered input sequence.
  void NoteInput(const Message* messages, size_t count);

  std::string name_;
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
