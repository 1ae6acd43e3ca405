#include "spex/run_core.h"

#include <algorithm>
#include <cassert>

#include "obs/sampling_profiler.h"

namespace spex {

std::string RunStats::ToString() const {
  std::string out;
  out += "network_degree=" + std::to_string(network_degree);
  out += " events=" + std::to_string(events_processed);
  out += " max_depth_stack=" + std::to_string(max_depth_stack);
  out += " max_cond_stack=" + std::to_string(max_condition_stack);
  out += " max_formula_nodes=" + std::to_string(max_formula_nodes);
  out += " messages=" + std::to_string(total_messages);
  out += " candidates=" + std::to_string(output.candidates_created);
  out += " emitted=" + std::to_string(output.candidates_emitted);
  out += " dropped=" + std::to_string(output.candidates_dropped);
  out += " buffered_peak=" + std::to_string(output.buffered_events_peak);
  return out;
}

RunCore::RunCore(EngineOptions options)
    : context_(std::make_unique<RunContext>()) {
  context_->options = std::move(options);
}

RunCore::~RunCore() = default;

void RunCore::Start(Network network, int input_node,
                    std::vector<OutputTransducer*> outputs,
                    std::string query_text) {
  network_ = std::move(network);
  input_node_ = input_node;
  outputs_ = std::move(outputs);
  query_text_ = std::move(query_text);
  const EngineOptions& options = context_->options;
  // Always-on counters: the event count is a pull counter over
  // events_processed_, and OU feeds the decision-delay histogram.
  context_->metrics.AddCallbackCounter(
      "spex_events_total", {},
      [counter = &events_processed_] { return *counter; });
  context_->observer.output_decision_delay =
      context_->metrics.AddHistogram("spex_output_decision_delay_events");
  formula_allocs_baseline_ = Formula::GetPoolStats().allocated_total;
  progress_enabled_ = options.progress.enabled();
  if (progress_enabled_) {
    next_progress_events_ = options.progress.every_events;
    next_progress_bytes_ = options.progress.every_bytes;
  }
  guarded_ = options.limits.enabled() || options.track_open_elements;
  // Sweep size (DESIGN.md §11): whole batches, cut at the network's scope
  // exits; one event per sweep while a byte post-limit samples occupancy
  // after every event.
  whole_batch_sweeps_ = options.limits.max_buffered_bytes <= 0 &&
                        options.limits.max_formula_bytes <= 0;
  const LabelSet& cuts = network_.sweep_cuts();
  cut_document_ = cuts.document;
  cut_any_element_ = cuts.any_element;
  for (const std::string& label : cuts.labels) {
    const Symbol symbol = context_->symbol_table()->Intern(label);
    if (symbol >= cut_symbols_.size()) cut_symbols_.resize(symbol + 1);
    cut_symbols_[symbol] = 1;
  }
  if (guarded_) open_path_.reserve(64);
  run_start_ = std::chrono::steady_clock::now();
  if (options.limits.deadline_ms > 0) {
    deadline_ =
        run_start_ + std::chrono::milliseconds(options.limits.deadline_ms);
  }
  last_watermark_time_ = run_start_;
}

obs::MetricRegistry& RunCore::metrics() {
  if (!collectors_registered_ && input_node_ >= 0) {
    collectors_registered_ = true;
    obs::MetricRegistry* registry = &context_->metrics;
    RegisterNetworkCollectors(registry, &network_);
    for (size_t slot = 0; slot < outputs_.size(); ++slot) {
      obs::Labels labels;
      if (outputs_.size() > 1) labels = {{"query", std::to_string(slot)}};
      RegisterOutputCollectors(registry, outputs_[slot], std::move(labels));
    }
    RegisterContextCollectors(registry, context_.get(),
                              formula_allocs_baseline_);
    registry->AddCallbackGauge(
        "spex_engine_events", {},
        [counter = &events_processed_] { return *counter; });
  }
  return context_->metrics;
}

void RunCore::AttachTrace(obs::TraceRecorder* recorder) {
  context_->observer.trace = recorder;
  network_.SetTraceRecorder(recorder);
  if (recorder == nullptr) return;
  for (int k = 0; k < 5; ++k) {
    stream_span_names_[k] =
        recorder->InternName(EventKindName(static_cast<EventKind>(k)));
  }
  context_->observer.trace_buffered_name =
      recorder->InternName("output_buffered_events");
  recorder->SetTrackName(0, "stream");
  for (int i = 0; i < network_.node_count(); ++i) {
    recorder->SetTrackName(i + 1, network_.node(i)->name());
  }
}

void RunCore::AttachProfiler(obs::ProfileAccumulator* profiler) {
  assert(profiler == nullptr ||
         profiler->nodes().size() ==
             static_cast<size_t>(network_.node_count()));
  profiler_ = profiler;
  network_.SetProfiler(profiler);
}

void RunCore::Reject(Status status) {
  status_ = std::move(status);
  guarded_ = true;  // the governed path drops every event of a failed run
}

void RunCore::OnEvent(const StreamEvent& event) { OnEventBatch(&event, 1); }

void RunCore::OnEventBatch(const StreamEvent* events, size_t count) {
  if (count == 0) return;
  // One null-check per batch when no controller is attached; with one, a
  // thread-local increment and a relaxed load (see obs/sampling_profiler.h).
  if (sampler_ctl_ != nullptr && sampler_ctl_->ShouldSample()) [[unlikely]] {
    SampleBatch(events, count);
    return;
  }
  OnEventBatchUnsampled(events, count);
}

void RunCore::SampleBatch(const StreamEvent* events, size_t count) {
  if (profiler_ != nullptr) {
    // The attached profiler already times every sweep; sampling on top
    // would only steal its attributions.
    OnEventBatchUnsampled(events, count);
    return;
  }
  if (sample_profiler_ == nullptr) {
    sample_profiler_ =
        std::make_unique<obs::ProfileAccumulator>(network_.node_count());
  }
  network_.SetProfiler(sample_profiler_.get());
  OnEventBatchUnsampled(events, count);
  network_.SetProfiler(nullptr);
  ++sampled_batches_;
}

void RunCore::OnEventBatchUnsampled(const StreamEvent* events, size_t count) {
  // The resource governor costs this one branch when disabled (DESIGN.md
  // §10), mirroring the observability contract in Sweep.
  if (!guarded_) [[likely]] {
    Deliver(events, count);
    return;
  }
  GuardedBatch(events, count);
}

void RunCore::Deliver(const StreamEvent* events, size_t count) {
  for (size_t i = 0; i < count;) {
    i += Sweep(events + i, SweepLength(events + i, count - i));
  }
}

size_t RunCore::SweepLength(const StreamEvent* events, size_t count) const {
  if (!whole_batch_sweeps_) return 1;
  if (!cut_document_ && !cut_any_element_ && cut_symbols_.empty()) {
    return count;  // no qualifiers: nothing to cut
  }
  // True bindings arise only in rounds of start tags (activations precede
  // start tags, formulas are monotone), and VC reads its variable at a
  // scope exit: cut before a scope exit that follows a start tag.
  bool holds_start = false;
  for (size_t i = 0; i < count; ++i) {
    const StreamEvent& e = events[i];
    switch (e.kind) {
      case EventKind::kStartElement:
      case EventKind::kStartDocument:
        holds_start = true;
        break;
      case EventKind::kEndElement:
      case EventKind::kEndDocument:
        if (holds_start && IsSweepCut(e)) return i;
        break;
      case EventKind::kText:
        break;
    }
  }
  return count;
}

bool RunCore::IsSweepCut(const StreamEvent& end_tag) const {
  if (end_tag.kind == EventKind::kEndDocument) return cut_document_;
  if (cut_any_element_) return true;
  const Symbol symbol = end_tag.label != kNoSymbol
                            ? end_tag.label
                            : context_->symbol_table()->Lookup(end_tag.name);
  return symbol < cut_symbols_.size() && cut_symbols_[symbol] != 0;
}

size_t RunCore::Sweep(const StreamEvent* events, size_t count) {
  assert(input_node_ >= 0 &&
         "feed events only after the network is compiled "
         "(MultiQueryEngine::Finalize)");
  // Zero-copy delivery: the sweep's one array of document messages, which
  // every node reads (sparse tapes, DESIGN.md §11), borrows `events`, which
  // outlive the sweep.  Events not stamped by a parser are interned here so
  // the label transducers always take the integer fast path.
  message_batch_.clear();
  SymbolTable* symbols = context_->symbol_table();
  size_t swept = 0;
  bool end = false;
  while (swept < count && !end) {
    const StreamEvent& e = events[swept++];
    Message& m = message_batch_.emplace_back(Message::DocumentRef(e));
    if (m.symbol == kNoSymbol && e.kind == EventKind::kStartElement) {
      m.symbol = symbols->Intern(e.name);
    }
    end = e.kind == EventKind::kEndDocument;
  }
  events_processed_ += static_cast<int64_t>(swept);
  // A trace recorder and progress cost this one branch when neither is on
  // (DESIGN.md §7).
  obs::TraceRecorder* trace = context_->observer.trace;
  if (trace == nullptr && !progress_enabled_) [[likely]] {
    network_.DeliverBatch(input_node_, 0, message_batch_);
  } else {
    if (trace != nullptr) {
      const int64_t start = trace->NowNs();
      network_.DeliverBatch(input_node_, 0, message_batch_);
      trace->RecordSpan(
          /*tid=*/0, stream_span_names_[static_cast<int>(events[0].kind)],
          start, trace->NowNs());
    } else {
      network_.DeliverBatch(input_node_, 0, message_batch_);
    }
    if (progress_enabled_) MaybeEmitProgress();
  }
  if (end) EndDocument();
  // End-of-sweep garbage collection: a retired variable's scope closed, so
  // no later round's message mentions it, and the formulas kept across
  // scopes (OU's candidates, FO's armed formula, PR's pending conditions)
  // were rewritten as its determination passed, so the binding can go.
  std::vector<VarId>& retired = context_->retired_variables;
  for (VarId v : retired) context_->assignment.Erase(v);
  retired.clear();
  return swept;
}

void RunCore::GuardedBatch(const StreamEvent* events, size_t count) {
  if (!status_.ok()) return;  // poisoned: the rest of the stream is dropped
  Status breach;
  if (whole_batch_sweeps_) {
    // The pre-checks build the admissible prefix, exactly the events a
    // one-event-at-a-time run would have delivered before the breach; the
    // clock is read once per batch.
    size_t admitted = 0;
    while (admitted < count &&
           Admit(events[admitted],
                 events_processed_ + static_cast<int64_t>(admitted),
                 /*check_deadline=*/admitted == 0, &breach)) {
      ++admitted;
    }
    Deliver(events, admitted);
    if (admitted < count) FailRun(std::move(breach));
    return;
  }
  // One-event sweeps: admit, sweep and post-check each event before the
  // next.  The clock is read every 256 events.
  for (size_t i = 0; i < count; ++i) {
    if (!Admit(events[i], events_processed_,
               /*check_deadline=*/(events_processed_ & 255) == 0, &breach)) {
      FailRun(std::move(breach));
      return;
    }
    Sweep(events + i, 1);
    if (!WithinByteLimits()) return;
  }
}

bool RunCore::Admit(const StreamEvent& event, int64_t index,
                    bool check_deadline, Status* breach) {
  const EngineLimits& limits = context_->options.limits;
  if (limits.max_events > 0 && index >= limits.max_events) {
    *breach = Status::ResourceExhausted(
        "max_events exceeded (" + std::to_string(limits.max_events) + ")");
    return false;
  }
  if (check_deadline && limits.deadline_ms > 0 &&
      std::chrono::steady_clock::now() > deadline_) {
    *breach = Status::DeadlineExceeded(
        "deadline_ms exceeded (" + std::to_string(limits.deadline_ms) + ")");
    return false;
  }
  if (event.kind == EventKind::kStartElement) {
    if (limits.max_depth > 0 &&
        static_cast<int>(open_path_.size()) >= limits.max_depth) {
      *breach = Status::ResourceExhausted(
          "max_depth exceeded (" + std::to_string(limits.max_depth) + ")");
      return false;
    }
    open_path_.push_back(event.label != kNoSymbol
                             ? event.label
                             : context_->symbol_table()->Intern(event.name));
  } else if (event.kind == EventKind::kEndElement && !open_path_.empty()) {
    open_path_.pop_back();
  }
  return true;
}

void RunCore::EndDocument() {
  document_ended_ = true;
  for (OutputTransducer* output : outputs_) output->Flush();
}

bool RunCore::WithinByteLimits() {
  // Memory the sweep actually pinned.  Skipped once the stream completed —
  // after end-document the run already flushed and decided everything, and
  // the thread-shared formula arena may still hold *other* sessions' live
  // nodes, which must not fail a finished run.
  if (document_ended_) return true;
  const EngineLimits& limits = context_->options.limits;
  if (limits.max_buffered_bytes > 0 &&
      buffered_bytes() > limits.max_buffered_bytes) {
    FailRun(Status::ResourceExhausted(
        "max_buffered_bytes exceeded (" +
        std::to_string(limits.max_buffered_bytes) + ")"));
    return false;
  }
  if (limits.max_formula_bytes > 0 &&
      Formula::GetPoolStats().live *
              static_cast<int64_t>(sizeof(internal::FormulaNode)) >
          limits.max_formula_bytes) {
    FailRun(Status::ResourceExhausted(
        "max_formula_bytes exceeded (" +
        std::to_string(limits.max_formula_bytes) + ")"));
    return false;
  }
  return true;
}

void RunCore::FailRun(Status status) {
  status_ = std::move(status);
  // Everything fully emitted up to the breach is certain; fragments emitted
  // later (by FinalizeTruncated's virtual closes) are speculative.
  FreezeCertain();
}

void RunCore::FreezeCertain() {
  if (certain_frozen_) return;
  certain_frozen_ = true;
  certain_results_.clear();
  for (const OutputTransducer* output : outputs_) {
    certain_results_.push_back(output->result_count());
  }
}

Status RunCore::FinalizeTruncated() {
  if (document_ended_) return status_;  // complete (or already sealed): no-op
  FreezeCertain();
  truncated_ = true;
  if (events_processed_ == 0) {
    // Nothing was ever delivered; there is no open round to close.
    document_ended_ = true;
    return status_;
  }
  // Seal below the governor: the virtual closes must reach the network even
  // on a poisoned run, and must not re-trip the limit being breached.
  SymbolTable* symbols = context_->symbol_table();
  std::vector<StreamEvent> seal;
  seal.reserve(open_path_.size() + 1);
  for (auto it = open_path_.rbegin(); it != open_path_.rend(); ++it) {
    seal.push_back(StreamEvent::EndElement(symbols->Name(*it)));
    seal.back().label = *it;
  }
  open_path_.clear();
  seal.push_back(StreamEvent::EndDocument());  // flushes OUs, decides all
  Deliver(seal.data(), seal.size());
  return status_;
}

int64_t RunCore::result_count(int slot) const {
  return outputs_[static_cast<size_t>(slot)]->result_count();
}

int64_t RunCore::result_count() const {
  int64_t total = 0;
  for (const OutputTransducer* output : outputs_) {
    total += output->result_count();
  }
  return total;
}

int64_t RunCore::certain_result_count(int slot) const {
  return certain_frozen_ ? certain_results_[static_cast<size_t>(slot)]
                         : result_count(slot);
}

int64_t RunCore::certain_result_count() const {
  int64_t total = 0;
  for (int slot = 0; slot < slot_count(); ++slot) {
    total += certain_result_count(slot);
  }
  return total;
}

const OutputStats& RunCore::output_stats(int slot) const {
  return outputs_[static_cast<size_t>(slot)]->output_stats();
}

int64_t RunCore::buffered_events() const {
  int64_t total = 0;
  for (const OutputTransducer* output : outputs_) {
    total += output->buffered_events();
  }
  return total;
}

int64_t RunCore::buffered_bytes() const {
  int64_t total = 0;
  for (const OutputTransducer* output : outputs_) {
    total += output->buffered_bytes();
  }
  return total;
}

void RunCore::MaybeEmitProgress() {
  const ProgressOptions& progress = context_->options.progress;
  bool due = false;
  if (progress.every_events > 0 && events_processed_ >= next_progress_events_) {
    due = true;
    // A batch can jump several thresholds at once; one callback fires and
    // the trigger re-arms past the current count (batch granularity).
    do {
      next_progress_events_ += progress.every_events;
    } while (events_processed_ >= next_progress_events_);
  }
  if (!due && progress.every_bytes > 0 && progress_bytes_source_) {
    const int64_t bytes = progress_bytes_source_();
    if (bytes >= next_progress_bytes_) {
      due = true;
      next_progress_bytes_ = bytes + progress.every_bytes;
    }
  }
  if (due && progress.callback) progress.callback(CurrentWatermark());
}

Watermark RunCore::CurrentWatermark() const {
  Watermark w;
  w.events = events_processed_;
  w.bytes = progress_bytes_source_ ? progress_bytes_source_() : 0;
  const auto now = std::chrono::steady_clock::now();
  w.elapsed_sec = std::chrono::duration<double>(now - run_start_).count();
  const double window =
      std::chrono::duration<double>(now - last_watermark_time_).count();
  // A zero/near-zero window (first tick polled immediately, back-to-back
  // polls, coarse clocks) would divide into inf or garbage rates.  Report 0
  // and leave the baseline in place so the next poll sees the full window.
  constexpr double kMinRateWindowSec = 1e-6;
  if (window >= kMinRateWindowSec) {
    w.events_per_sec =
        static_cast<double>(events_processed_ - last_watermark_events_) /
        window;
    last_watermark_time_ = now;
    last_watermark_events_ = events_processed_;
  }
  for (const OutputTransducer* output : outputs_) {
    w.results += output->result_count();
    w.pending_fragments += output->pending_candidates();
    w.buffered_events += output->buffered_events();
    w.buffered_events_peak += output->output_stats().buffered_events_peak;
  }
  w.live_formula_nodes = Formula::GetPoolStats().live;
  w.live_condition_vars = static_cast<int64_t>(context_->assignment.size());
  return w;
}

RunStats RunCore::ComputeStats() const {
  // The same per-transducer and per-collector state the registry's pull
  // collectors expose, read directly: a registry snapshot of a large shared
  // network costs tens of thousands of samples.
  RunStats stats;
  stats.network_degree = network_.node_count();
  stats.events_processed = events_processed_;
  for (int i = 0; i < network_.node_count(); ++i) {
    const TransducerStats& t = network_.node(i)->stats();
    stats.max_depth_stack = std::max(stats.max_depth_stack, t.depth_stack_peak);
    stats.max_condition_stack =
        std::max(stats.max_condition_stack, t.condition_stack_peak);
    stats.max_formula_nodes =
        std::max(stats.max_formula_nodes, t.formula_nodes_peak);
    stats.total_messages += t.messages_in;
  }
  for (const OutputTransducer* output : outputs_) {
    const OutputStats& o = output->output_stats();
    stats.output.candidates_created += o.candidates_created;
    stats.output.candidates_dropped += o.candidates_dropped;
    stats.output.candidates_emitted += o.candidates_emitted;
    stats.output.streamed_events += o.streamed_events;
    stats.output.buffered_events_peak += o.buffered_events_peak;
    stats.output.open_candidates_peak += o.open_candidates_peak;
  }
  return stats;
}

obs::ProfileReport RunCore::BuildReport(
    const obs::ProfileAccumulator* profiler) const {
  const Formula::PoolStats pool = Formula::GetPoolStats();
  return BuildProfileReport(network_, query_text_, events_processed_, profiler,
                            pool.live_high_water,
                            pool.allocated_total - formula_allocs_baseline_);
}

obs::ProfileReport RunCore::Profile() const { return BuildReport(profiler_); }

obs::ProfileReport RunCore::SampledProfile() const {
  return BuildReport(sample_profiler_.get());
}

}  // namespace spex
