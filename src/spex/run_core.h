// The one engine core (DESIGN.md §10/§11): a run of a compiled SPEX network
// over one document stream.
//
// The three front-ends — SpexEngine (one query), MultiQueryEngine (a
// hash-consed query population, §IX) and ConjunctiveEngine (the Fig. 16
// translation, §VII) — only compile their network against the core's
// RunContext and hand it over with one output collector per result *slot*
// (the query; the population's sorted-canonical slots; the conjunctive
// query's head variables).  Everything that happens afterwards lives here,
// once: symbol stamping, the sweep size of the network's one delivery path,
// the end-document flush and end-of-round variable GC, the resource governor
// with certain-prefix sealing, observability, sampling, progress watermarks
// and the §V stats.  A single query is a population of one slot.

#ifndef SPEX_SPEX_RUN_CORE_H_
#define SPEX_SPEX_RUN_CORE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "spex/network.h"
#include "spex/observe.h"
#include "spex/output_transducer.h"
#include "xml/stream_event.h"

namespace spex {

namespace obs {
class SamplingProfiler;
}  // namespace obs

// Aggregate resource accounting over a run (validates the §V bounds).
struct RunStats {
  // Number of transducers in the compiled network (Def. 3 degree + IN + OU).
  int network_degree = 0;
  // Document messages fed through OnEvent so far.
  int64_t events_processed = 0;
  // Peak depth-stack entries over all transducers; bounded by the document
  // depth d (§V: space O(d) per transducer).
  int64_t max_depth_stack = 0;
  // Peak condition-stack entries over all transducers; also O(d).
  int64_t max_condition_stack = 0;
  // Largest formula (distinct DAG nodes, the factored size of Remark V.1)
  // handled by any transducer.  Because formula nodes come from a pooled
  // arena bounded by the count of live nodes (see formula.h), this is also
  // the engine's formula-memory high-water mark per message; on streams
  // with bounded depth and qualifier nesting it stays bounded no matter how
  // long the stream runs (the end-of-round variable GC retires bindings, and
  // the rewrites on every determination keep the stored formulas trimmed).
  int64_t max_formula_nodes = 0;
  // Sum of per-transducer messages_in: total message deliveries, the
  // paper's O(degree * stream) message bound.
  int64_t total_messages = 0;
  // Output-collector accounting, summed over the run's slots.
  OutputStats output;

  std::string ToString() const;
};

class RunCore : public EventSink {
 public:
  ~RunCore() override;

  RunCore(const RunCore&) = delete;
  RunCore& operator=(const RunCore&) = delete;

  // Feeds one document message through the network: OnEventBatch(&event, 1).
  void OnEvent(const StreamEvent& event) override;

  // Feeds `count` consecutive document messages (DESIGN.md §11).  On
  // kEndDocument every output collector is flushed and all remaining
  // candidates decided.  Every event reaches the network through its one
  // delivery path, the topological sweep (Network::DeliverBatch).  A sweep
  // carries the whole batch, cut only before an end tag in the network's
  // sweep_cuts() that follows a start tag of the same sweep (a qualifier
  // scope exit); with a byte limit set it carries one event.  The
  // end-of-round variable GC runs between sweeps.  Attached observation
  // never changes the sweep size.  Results, statuses and counters are
  // identical at every batch size; the difference is cost.  The events must
  // outlive the call (zero-copy borrowing at batch scope).
  //
  // Resource governance (DESIGN.md §10): when EngineOptions::limits is set,
  // every event passes the governor first; a breached limit poisons the run
  // (status() becomes kResourceExhausted / kDeadlineExceeded) and every
  // further event is dropped.  Call FinalizeTruncated() to seal the stream
  // and harvest the partial result.  With limits unset and
  // track_open_elements off this costs exactly one predictable branch.
  void OnEventBatch(const StreamEvent* events, size_t count) override;

  // kOk while the run is healthy; the breach status once the governor
  // tripped.  A poisoned run ignores further events.
  const Status& status() const { return status_; }

  // Seals an incomplete stream: virtually closes every open element (end
  // tags synthesized from the tracked open path) and delivers a virtual
  // end-document so the output collectors decide every remaining candidate
  // under closed-world semantics.  Fragments fully emitted before the
  // truncation point are *certain* — byte-for-byte what any run over the
  // full stream would have emitted first (monotone formulas, document-order
  // emission); fragments emitted by this call are *speculative* (their
  // content or membership could have changed had the stream continued).
  // Requires limits or EngineOptions::track_open_elements; idempotent, and a
  // no-op after a complete stream.  Returns status() (unchanged: sealing
  // does not clear a breach).
  Status FinalizeTruncated();

  // True once the stream delivered (or FinalizeTruncated synthesized) its
  // end-document message.
  bool stream_complete() const { return document_ended_; }
  // True iff FinalizeTruncated sealed this run.
  bool truncated() const { return truncated_; }

  // Result slots, one output collector each.
  int slot_count() const { return static_cast<int>(outputs_.size()); }
  // Results emitted so far, by slot and over every slot.
  int64_t result_count(int slot) const;
  int64_t result_count() const;
  // Results known to be exact: on a healthy run, all of them; after a
  // governor breach or FinalizeTruncated, the fragments fully emitted
  // before the truncation point.  The first certain_result_count(slot)
  // results of a slot's collecting/serializing sink are the certain ones
  // (document-order emission).
  int64_t certain_result_count(int slot) const;
  int64_t certain_result_count() const;
  const OutputStats& output_stats(int slot) const;

  // Output-buffer occupancy right now, summed over the slots: events held
  // for undecided candidate fragments and their byte cost (the quantities
  // the §V memory bounds and the governor's max_buffered_bytes limit speak
  // about).
  int64_t buffered_events() const;
  int64_t buffered_bytes() const;

  int64_t events_processed() const { return events_processed_; }

  // Resource accounting over the network's per-transducer stats and the
  // output collectors (the same state the registry's pull collectors
  // expose); callable at any point of the stream.
  RunStats ComputeStats() const;

  // EXPLAIN/PROFILE: per-node cost attribution with query provenance (see
  // obs/profile.h).  Timed (self-time shares, deliveries over the batches
  // swept while it was attached) iff a profiler is attached; otherwise a
  // static plan — provenance, predicted cost classes, and whatever message
  // counts have accrued.  Callable at any point of the stream.
  // report.query defaults to the compiled expression's round-trip syntax;
  // callers holding the original query text (whose byte offsets the spans
  // index) may overwrite it.
  obs::ProfileReport Profile() const;

  // Always-on statistical sampling (DESIGN.md §13): with a controller
  // attached, each OnEventBatch call (OnEvent is a batch of one) draws once,
  // and the ~1/period batches that win have their sweeps' node calls timed
  // into a private ProfileAccumulator — continuous attribution at a
  // fraction of a full profiler's cost.  The controller is shared
  // (typically pool-wide) and must outlive the run; an attached profiler
  // (AttachProfiler) takes precedence, since every batch is already timed
  // then.
  void SetBatchSampler(obs::SamplingProfiler* sampler) {
    sampler_ctl_ = sampler;
  }
  // Batches this run actually sampled.
  int64_t sampled_batches() const { return sampled_batches_; }
  // Attribution report over the sampled batches (timed iff any batch was
  // sampled); same shape as Profile().
  obs::ProfileReport SampledProfile() const;

  // Output decision delay (rounds — document messages — between a
  // candidate's creation and its determination, counted by each OU, so it
  // does not depend on the sweep size), recorded by every run; null only
  // before the network was handed over (a rejected run).
  const obs::Histogram* decision_delay() const {
    return context_->observer.output_decision_delay;
  }

  // The run's live metrics registry (see obs/metrics.h).  It always holds
  // spex_events_total and the decision-delay histogram; the first call
  // registers the pull collectors over the network/output/formula-pool
  // state (outputs labelled query=<slot> when there is more than one slot)
  // and spex_engine_events.  Runs nobody scrapes — pool sessions — never
  // build them.
  obs::MetricRegistry& metrics();

  // Observation hooks (DESIGN.md §7).  Both may be called on the run's
  // thread between any two OnEventBatch calls; null detaches.  The caller
  // owns the object, which must stay alive while attached.
  //
  // A trace recorder (sized by the caller) gets one span per sweep on the
  // stream track (tid 0, named after the sweep's first event kind), one
  // span per node call of the sweep on track node+1 nested inside it, and
  // the output-buffer occupancy as a counter track; the tracks are named
  // "stream" and after the transducers (see TraceRecorder::SetTrackPrefix).
  // Export with ToChromeJson() (chrome://tracing / Perfetto).
  void AttachTrace(obs::TraceRecorder* recorder);
  // A profile accumulator, sized network().node_count(), times every node
  // call of the sweep into per-node self times; Profile() is timed while
  // one is attached.
  void AttachProfiler(obs::ProfileAccumulator* profiler);

  // Progress watermarks.  Configured callbacks (EngineOptions::progress)
  // fire from OnEvent every N events / M bytes; CurrentWatermark() computes
  // the same report on demand (examples/stream_monitor polls it).  The
  // reported rate is measured since the previous watermark (from either
  // path).  `bytes` is 0 unless a byte source was attached.
  Watermark CurrentWatermark() const;
  // Attaches the stream-byte source used by Watermark::bytes and the
  // every_bytes trigger — typically [&parser] { return parser.bytes_consumed(); }.
  // The callable must outlive the run's last OnEvent/CurrentWatermark.
  void set_progress_bytes_source(std::function<int64_t()> source) {
    progress_bytes_source_ = std::move(source);
  }

  Network& network() { return network_; }
  const Network& network() const { return network_; }
  RunContext& context() { return *context_; }
  // The run's label symbols.  A parser configured with this table stamps
  // events so OnEvent skips interning entirely (see EvaluateXml); events
  // arriving unstamped are interned on entry.
  SymbolTable* symbol_table() { return context_->symbol_table(); }

 protected:
  explicit RunCore(EngineOptions options);

  // Hands the front-end's compiled network to the core and finishes the
  // set-up: counters, governor and progress state.
  // `network` was compiled against context(); `outputs` holds one collector
  // per slot (owned by the network); `query_text` names the run in profile
  // reports.
  void Start(Network network, int input_node,
             std::vector<OutputTransducer*> outputs, std::string query_text);

  // Poisons a run whose network could not be compiled: every event is
  // dropped and status() reports `status`.
  void Reject(Status status);

 private:
  // OnEventBatch after the sampling draw.
  void OnEventBatchUnsampled(const StreamEvent* events, size_t count);
  // Sampled batch: the same sweeps, timed into sample_profiler_.
  void SampleBatch(const StreamEvent* events, size_t count);
  // Ungoverned delivery of `count` events in sweeps of the run's size.
  void Deliver(const StreamEvent* events, size_t count);
  // Events the next sweep carries out of `count`: all of them, or up to the
  // first sweep cut that follows a start tag, or one under a byte limit.
  size_t SweepLength(const StreamEvent* events, size_t count) const;
  // True if `end_tag` is in the network's sweep cuts.
  bool IsSweepCut(const StreamEvent& end_tag) const;
  // One sweep over up to `count` events, ending early after an end-document
  // (so the output collectors flush before anything that bogusly follows
  // it); returns the number of events swept.  Runs the end-document flush,
  // progress watermarks and the end-of-round variable GC after the sweep.
  size_t Sweep(const StreamEvent* events, size_t count);
  // Governed delivery: per-event pre-checks (max_events / max_depth /
  // open-path tracking) admit exactly the events a one-event-at-a-time run
  // would have processed before a breach poisons the run; with one-event
  // sweeps the byte post-limits are checked after each sweep.
  void GuardedBatch(const StreamEvent* events, size_t count);
  // Governor pre-checks of the event that would be the run's `index`-th
  // (max_events, the deadline when `check_deadline`, max_depth): true after
  // tracking the event on the open path, false with *breach filled.  An
  // event is rejected *before* it is tracked, so open_path_ always matches
  // what the network actually saw.
  bool Admit(const StreamEvent& event, int64_t index, bool check_deadline,
             Status* breach);
  // Governor post-checks after a sweep (max_buffered_bytes,
  // max_formula_bytes): false after poisoning the run.
  bool WithinByteLimits();
  // Poisons the run and freezes the certain-result boundary.
  void FailRun(Status status);
  // Freezes every slot's certain-result boundary (first call wins).
  void FreezeCertain();
  // End-document: flushes every output collector.
  void EndDocument();
  void MaybeEmitProgress();
  obs::ProfileReport BuildReport(const obs::ProfileAccumulator* profiler) const;

  std::unique_ptr<RunContext> context_;
  Network network_;
  int input_node_ = -1;
  std::vector<OutputTransducer*> outputs_;  // one per slot, owned by network_
  std::string query_text_;  // for ProfileReport::query
  // Attached profiler (AttachProfiler), caller-owned; the attached trace
  // recorder lives in RunContext::observer.
  obs::ProfileAccumulator* profiler_ = nullptr;
  // Stream-track span names in the attached recorder, by EventKind.
  int stream_span_names_[5] = {};
  // True once metrics() registered the pull collectors.
  bool collectors_registered_ = false;
  // Batch sampling (SetBatchSampler): shared controller, lazily-built
  // private accumulator for the sampled batches.
  obs::SamplingProfiler* sampler_ctl_ = nullptr;
  std::unique_ptr<obs::ProfileAccumulator> sample_profiler_;
  int64_t sampled_batches_ = 0;
  // Formula-pool allocation count at Start (the pool is thread-local and
  // shared by every run on the thread; reports and spex_formula_pool_allocs
  // show the per-run delta).
  int64_t formula_allocs_baseline_ = 0;
  int64_t events_processed_ = 0;
  // True when delivery must take the governed path (limits configured or
  // track_open_elements): the unguarded hot path tests exactly this flag.
  bool guarded_ = false;
  // The sweep size, computed once in Start: true sweeps a whole batch at a
  // time up to the next cut, false one event (one round) per sweep (see
  // OnEventBatch).
  bool whole_batch_sweeps_ = false;
  // The network's sweep cuts: </$>, every element, and by label symbol.
  bool cut_document_ = false;
  bool cut_any_element_ = false;
  std::vector<uint8_t> cut_symbols_;
  // The document messages of the current sweep, read by every node; reused,
  // so steady state allocates nothing.
  std::vector<Message> message_batch_;
  bool document_ended_ = false;
  bool truncated_ = false;
  Status status_;
  // Interned labels of the currently open elements (governed runs only);
  // FinalizeTruncated synthesizes the virtual close tags from it.
  std::vector<Symbol> open_path_;
  // Per-slot certain-result boundary, valid once certain_frozen_ (breach or
  // truncation); before that every result is certain.
  std::vector<int64_t> certain_results_;
  bool certain_frozen_ = false;
  // Wall-clock breach point when limits.deadline_ms is set.
  std::chrono::steady_clock::time_point deadline_{};
  bool progress_enabled_ = false;
  std::function<int64_t()> progress_bytes_source_;
  int64_t next_progress_events_ = 0;
  int64_t next_progress_bytes_ = 0;
  std::chrono::steady_clock::time_point run_start_{};
  // Rate baseline of the previous watermark (mutable: CurrentWatermark is
  // logically const but advances the rate window).
  mutable std::chrono::steady_clock::time_point last_watermark_time_{};
  mutable int64_t last_watermark_events_ = 0;
};

}  // namespace spex

#endif  // SPEX_SPEX_RUN_CORE_H_
