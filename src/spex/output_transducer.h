// Output transducer OU (paper §III.8): the sink of a SPEX network.
//
// Identifies result candidates (the subtree started by an activated document
// message), evaluates their condition formulas against the determinations
// seen so far, and emits results.  Two emission policies are supported (see
// OutputOrder in transducer.h):
//
//  * kDocumentStart — strict document order of the fragments' start tags; a
//    candidate is buffered while its formula is undetermined OR an earlier
//    candidate is still pending.  Fragments never nest at the sink.
//  * kDetermination — a candidate starts streaming as soon as its formula is
//    determined true; fragments of nested results interleave at the sink
//    (properly nested Begin/End brackets) and decided candidates are never
//    buffered.  This matches the paper's constant-memory behaviour on the
//    large-document runs (Fig. 15).
//
// Delivery contract: every *live* document event is delivered at most once
// via OnResultEvent and belongs to every open fragment; when a buffered
// candidate becomes true, its buffered prefix is replayed through
// OnReplayedResultEvent and belongs only to the innermost (just begun)
// fragment — enclosing fragments already received those events live.
//
// OU is the only transducer needing the power of a 2-DPDT / Turing machine
// (Theorem IV.2): it requires random access to candidates and formulas.

#ifndef SPEX_SPEX_OUTPUT_TRANSDUCER_H_
#define SPEX_SPEX_OUTPUT_TRANSDUCER_H_

#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "spex/transducer.h"
#include "xml/xml_writer.h"

namespace spex {

// Receives query results as (possibly interleaved) Begin/Event*/End
// brackets identified by a per-result id; see the delivery contract above.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnResultBegin(int64_t id) { (void)id; }
  // A live event: belongs to every currently open fragment.
  virtual void OnResultEvent(const StreamEvent& event) = 0;
  // A replayed (previously buffered) event: belongs only to fragment `id`
  // (enclosing fragments already received it live).
  virtual void OnReplayedResultEvent(int64_t id, const StreamEvent& event) {
    (void)id;
    OnResultEvent(event);
  }
  virtual void OnResultEnd(int64_t id) { (void)id; }
};

// Counts results without storing them (constant memory).
class CountingResultSink : public ResultSink {
 public:
  void OnResultBegin(int64_t) override { ++results_; }
  void OnResultEvent(const StreamEvent& event) override {
    ++events_;
    bytes_ += static_cast<int64_t>(event.name.size() + event.text.size());
  }
  int64_t results() const { return results_; }
  int64_t events() const { return events_; }
  int64_t bytes() const { return bytes_; }

 private:
  int64_t results_ = 0;
  int64_t events_ = 0;
  int64_t bytes_ = 0;
};

// Collects each result fragment as an event vector, in Begin order.
// Nesting-aware: a live event is appended to every open fragment; replayed
// events go to their target fragment only.
class CollectingResultSink : public ResultSink {
 public:
  void OnResultBegin(int64_t id) override;
  void OnResultEvent(const StreamEvent& event) override;
  void OnReplayedResultEvent(int64_t id, const StreamEvent& event) override;
  void OnResultEnd(int64_t id) override;
  const std::vector<std::vector<StreamEvent>>& results() const {
    return results_;
  }

 private:
  std::vector<std::vector<StreamEvent>> results_;
  std::vector<std::pair<int64_t, size_t>> open_;  // (id, index), open frags
};

// Serializes each result fragment to an XML string, in Begin order.
// Incremental: every open fragment has its own XmlWriter (a live event is
// written to each open one, a replayed event to its target only), so a
// finished fragment is one string and no result event is kept.
class SerializingResultSink : public ResultSink {
 public:
  void OnResultBegin(int64_t id) override;
  void OnResultEvent(const StreamEvent& event) override;
  void OnReplayedResultEvent(int64_t id, const StreamEvent& event) override;
  void OnResultEnd(int64_t id) override;
  // Fragments in Begin order, minus the prefix TakeFinished moved out; a
  // fragment's entry stays empty until it closes, so the vector is complete
  // only after every fragment closed (end of stream).
  const std::vector<std::string>& results() const { return results_; }
  // Moves the longest prefix of finished fragments (Begin order) to the back
  // of *out and forgets it; returns how many moved.
  size_t TakeFinished(std::vector<std::string>* out);

 private:
  struct OpenFragment {
    int64_t id = 0;
    size_t index = 0;  // Begin-order position over every fragment so far
    XmlWriter writer;
  };
  OpenFragment& Find(int64_t id);

  std::vector<std::string> results_;
  std::vector<OpenFragment> open_;  // Begin order
  size_t taken_ = 0;                // fragments moved out by TakeFinished
  size_t begun_ = 0;
};

// Memory accounting for the §V claims (S_OU = O(sigma * s) worst case, but
// only fragments whose membership is undecided — or, under kDocumentStart,
// blocked by an earlier undecided fragment — are buffered).
struct OutputStats {
  int64_t candidates_created = 0;
  int64_t candidates_dropped = 0;    // formula decided false
  int64_t candidates_emitted = 0;    // formula decided true, fully output
  int64_t streamed_events = 0;       // events delivered without buffering
  int64_t buffered_events_peak = 0;  // max events buffered at any time
  int64_t open_candidates_peak = 0;  // max pending candidates at any time
};

class OutputTransducer : public Transducer {
 public:
  OutputTransducer(ResultSink* sink, RunContext* context);

  // Must be called once the stream ended: decides all remaining candidates
  // (a still-undetermined variable can no longer become true).
  void Flush();

  const OutputStats& output_stats() const { return output_stats_; }
  int64_t result_count() const { return output_stats_.candidates_emitted; }

  // Live occupancy, scraped by the observability registry mid-stream and by
  // the engine's resource governor (EngineLimits::max_buffered_bytes).
  int64_t buffered_events() const { return buffered_events_; }
  int64_t buffered_bytes() const { return buffered_bytes_; }
  int64_t pending_candidates() const {
    return static_cast<int64_t>(queue_.size());
  }

 private:
  // OU is the network sink: it has no output tape and emits nothing.  The
  // round walk, skipped whole while OU is idle.
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;

  struct Candidate {
    int64_t id = 0;  // Begin/End bracket identifier handed to the sink
    Formula formula;
    Truth decided = Truth::kUnknown;
    std::vector<StreamEvent> buffer;
    int64_t buffer_bytes = 0;  // payload bytes held in `buffer`
    int open_depth = 0;      // >0 while the fragment's subtree is open
    bool complete = false;
    bool streaming = false;  // Begin sent; events go straight to the sink
    // OU's round at creation: the decision-delay histogram measures
    // fragment buffering delay, in rounds (document messages), from here.
    int64_t created_at_round = 0;
  };
  using CandidateIt = std::list<Candidate>::iterator;

  bool interleaved() const {
    return context_->options.output_order == OutputOrder::kDetermination;
  }

  void OnControl(Message& message);
  void StartCandidate(Formula formula);
  void HandleDocument(const StreamEvent& event);
  void ReevaluateCandidates();
  // kDocumentStart: emits every leading decided candidate; the first
  // undecided (or incomplete-true) candidate blocks the queue.
  void AdvanceQueue();
  // Begin + replay of the buffered prefix.
  void BeginStreaming(Candidate* candidate);
  void DropCandidate(CandidateIt it);
  void FinishCandidate(CandidateIt it);
  void ForgetOpen(const Candidate* candidate);
  void NoteBuffered();
  // Publishes the buffering delay of a just-decided candidate into the
  // run's decision-delay histogram.  OU's own round counter is the clock,
  // so the delay does not depend on how rounds were grouped into sweeps.
  void NoteDecision(const Candidate& candidate);

  ResultSink* sink_;
  RunContext* context_;
  // Pending candidates in document order.  std::list keeps iterators stable
  // (open_ stores them) and allows middle erasure under kDetermination.
  std::list<Candidate> queue_;
  // Candidates whose subtree is still open, innermost last.  Subtrees nest,
  // so this is a stack of size <= stream depth: routing one event costs
  // O(depth), not O(pending candidates).
  std::vector<CandidateIt> open_;
  Formula pending_activation_;
  bool has_pending_activation_ = false;
  OutputStats output_stats_;
  int64_t buffered_events_ = 0;
  int64_t buffered_bytes_ = 0;
  // Last occupancy written to the trace counter track (recorder attached).
  int64_t last_traced_buffered_ = 0;
};

}  // namespace spex

#endif  // SPEX_SPEX_OUTPUT_TRANSDUCER_H_
