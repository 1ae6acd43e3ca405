#include "spex/output_transducer.h"

#include <cassert>
#include <utility>

namespace spex {

namespace {

// Removes and returns the fragment index registered for `id` (searched from
// the back: fragments close mostly LIFO).
size_t TakeOpenIndex(std::vector<std::pair<int64_t, size_t>>* open,
                     int64_t id) {
  for (size_t i = open->size(); i > 0; --i) {
    if ((*open)[i - 1].first == id) {
      size_t idx = (*open)[i - 1].second;
      open->erase(open->begin() + static_cast<ptrdiff_t>(i - 1));
      return idx;
    }
  }
  assert(false && "unknown result id");
  return 0;
}

// Bytes a buffered event pins: struct plus string payloads.  An estimate
// (small-string capacity is not modelled), but a monotone one, which is all
// the max_buffered_bytes governor needs.
int64_t EventBytes(const StreamEvent& event) {
  return static_cast<int64_t>(sizeof(StreamEvent) + event.name.size() +
                              event.text.size());
}

size_t FindOpenIndex(const std::vector<std::pair<int64_t, size_t>>& open,
                     int64_t id) {
  for (size_t i = open.size(); i > 0; --i) {
    if (open[i - 1].first == id) return open[i - 1].second;
  }
  assert(false && "unknown result id");
  return 0;
}

}  // namespace

void CollectingResultSink::OnResultBegin(int64_t id) {
  open_.emplace_back(id, results_.size());
  results_.emplace_back();
}

void CollectingResultSink::OnResultEvent(const StreamEvent& event) {
  for (const auto& [id, idx] : open_) results_[idx].push_back(event);
}

void CollectingResultSink::OnReplayedResultEvent(int64_t id,
                                                 const StreamEvent& event) {
  results_[FindOpenIndex(open_, id)].push_back(event);
}

void CollectingResultSink::OnResultEnd(int64_t id) {
  TakeOpenIndex(&open_, id);
}

void SerializingResultSink::OnResultBegin(int64_t id) {
  open_.push_back(OpenFragment{id, begun_++, XmlWriter()});
  results_.emplace_back();
}

void SerializingResultSink::OnResultEvent(const StreamEvent& event) {
  for (OpenFragment& fragment : open_) fragment.writer.OnEvent(event);
}

void SerializingResultSink::OnReplayedResultEvent(int64_t id,
                                                  const StreamEvent& event) {
  Find(id).writer.OnEvent(event);
}

void SerializingResultSink::OnResultEnd(int64_t id) {
  OpenFragment& fragment = Find(id);
  results_[fragment.index - taken_] = fragment.writer.Release();
  open_.erase(open_.begin() + (&fragment - open_.data()));
}

size_t SerializingResultSink::TakeFinished(std::vector<std::string>* out) {
  // open_ is in Begin order, so its front bounds the finished prefix.
  const size_t end = open_.empty() ? begun_ : open_.front().index;
  const size_t count = end - taken_;
  for (size_t i = 0; i < count; ++i) out->push_back(std::move(results_[i]));
  results_.erase(results_.begin(),
                 results_.begin() + static_cast<ptrdiff_t>(count));
  taken_ = end;
  return count;
}

SerializingResultSink::OpenFragment& SerializingResultSink::Find(int64_t id) {
  // Searched from the back: fragments close mostly LIFO.
  for (size_t i = open_.size(); i > 0; --i) {
    if (open_[i - 1].id == id) return open_[i - 1];
  }
  assert(false && "unknown result id");
  return open_.back();
}

OutputTransducer::OutputTransducer(ResultSink* sink, RunContext* context)
    : Transducer("OU", /*input_ports=*/1, /*output_ports=*/0),
      sink_(sink),
      context_(context) {}

void OutputTransducer::OnControl(Message& message) {
  switch (message.kind) {
    case MessageKind::kActivation:
      Fire(1);
      if (has_pending_activation_) {
        // Two activations for one document message: the node is a result if
        // either condition holds.
        pending_activation_ =
            Formula::Or(pending_activation_, message.formula);
      } else {
        pending_activation_ = message.formula;
        has_pending_activation_ = true;
      }
      return;
    case MessageKind::kDetermination:
      Fire(2);
      // Determinations are applied to the global assignment at their origin
      // (VD / VC); set defensively in case OU is driven stand-alone.
      context_->assignment.Set(message.var, message.value, round_);
      ReevaluateCandidates();
      if (!interleaved()) AdvanceQueue();
      return;
    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

void OutputTransducer::Sweep(Documents docs, Controls in0, Controls,
                             BatchEmitter* out) {
  // Idle: with no controls, no pending activation and no candidates (open_
  // holds iterators into queue_, so queue_ empty implies open_ empty) no
  // document message of the sweep can change OU's state — HandleDocument
  // would only recompute an unchanged buffered peak.  Skip the sweep.
  if (in0.empty() && !has_pending_activation_ && queue_.empty() &&
      !traced()) [[likely]] {
    round_ += static_cast<int64_t>(docs.size());
    return;
  }
  WalkRounds(
      docs, in0, out, [&](Message& m) { OnControl(m); },
      [&](const Message& d) {
        Fire(3);
        // The same idle test per document message.
        if (has_pending_activation_ || !queue_.empty()) {
          HandleDocument(d.event());
        }
      });
}

void OutputTransducer::StartCandidate(Formula formula) {
  Candidate c;
  c.id = output_stats_.candidates_created;
  c.formula = formula.Simplify(context_->assignment, round_);
  c.decided = c.formula.Evaluate(context_->assignment, round_);
  c.created_at_round = round_;
  queue_.push_back(std::move(c));
  CandidateIt it = std::prev(queue_.end());
  open_.push_back(it);
  ++output_stats_.candidates_created;
  output_stats_.open_candidates_peak =
      std::max<int64_t>(output_stats_.open_candidates_peak,
                        static_cast<int64_t>(queue_.size()));
  if (!interleaved()) {
    // A candidate created already-true can start streaming if it is the
    // front of the queue.
    AdvanceQueue();
  } else if (it->decided == Truth::kTrue) {
    BeginStreaming(&*it);
  } else if (it->decided == Truth::kFalse) {
    DropCandidate(it);
  }
}

void OutputTransducer::ForgetOpen(const Candidate* candidate) {
  for (size_t i = open_.size(); i > 0; --i) {
    if (&*open_[i - 1] == candidate) {
      open_.erase(open_.begin() + static_cast<ptrdiff_t>(i - 1));
      return;
    }
  }
}

void OutputTransducer::BeginStreaming(Candidate* candidate) {
  assert(!candidate->streaming);
  NoteDecision(*candidate);
  sink_->OnResultBegin(candidate->id);
  for (const StreamEvent& e : candidate->buffer) {
    sink_->OnReplayedResultEvent(candidate->id, e);
  }
  buffered_events_ -= static_cast<int64_t>(candidate->buffer.size());
  buffered_bytes_ -= candidate->buffer_bytes;
  candidate->buffer.clear();
  candidate->buffer.shrink_to_fit();
  candidate->buffer_bytes = 0;
  candidate->streaming = true;
}

void OutputTransducer::DropCandidate(CandidateIt it) {
  assert(!it->streaming);
  NoteDecision(*it);
  buffered_events_ -= static_cast<int64_t>(it->buffer.size());
  buffered_bytes_ -= it->buffer_bytes;
  ++output_stats_.candidates_dropped;
  if (!it->complete) ForgetOpen(&*it);
  queue_.erase(it);
}

void OutputTransducer::FinishCandidate(CandidateIt it) {
  assert(it->streaming && it->complete);
  sink_->OnResultEnd(it->id);
  ++output_stats_.candidates_emitted;
  queue_.erase(it);
}

void OutputTransducer::HandleDocument(const StreamEvent& event) {
  const bool opens = event.kind == EventKind::kStartElement ||
                     event.kind == EventKind::kStartDocument;
  const bool closes = event.kind == EventKind::kEndElement ||
                      event.kind == EventKind::kEndDocument;

  if (opens && has_pending_activation_) {
    // The document root <$> is not an element and therefore never a result
    // (a query like `_*` selects all elements, not the root): an activation
    // reaching OU right before <$> is discarded.
    if (event.kind != EventKind::kStartDocument) {
      StartCandidate(pending_activation_);
    }
    pending_activation_ = Formula::True();
    has_pending_activation_ = false;
  }

  // Route the event to the open candidates (a stack of size <= depth).  A
  // live event is delivered to the sink at most once; it belongs to every
  // open streaming fragment.
  bool front_completed = false;
  bool delivered = false;
  for (CandidateIt it : open_) {
    Candidate& c = *it;
    // Under kDocumentStart only the queue front may be streaming.
    const bool streams =
        c.streaming && (interleaved() || &c == &queue_.front());
    if (streams) {
      if (!delivered) {
        sink_->OnResultEvent(event);
        ++output_stats_.streamed_events;
        delivered = true;
      }
    } else {
      c.buffer.push_back(event);
      ++buffered_events_;
      const int64_t bytes = EventBytes(event);
      c.buffer_bytes += bytes;
      buffered_bytes_ += bytes;
    }
    if (opens) {
      ++c.open_depth;
    } else if (closes) {
      --c.open_depth;
      if (c.open_depth == 0) {
        c.complete = true;
        if (&c == &queue_.front() && c.streaming) front_completed = true;
      }
    }
  }
  // Candidate subtrees nest, so at most the innermost open candidate (the
  // last in open_) can have completed on this close message.
  if (closes && !open_.empty() && open_.back()->complete) {
    CandidateIt done = open_.back();
    open_.pop_back();
    if (interleaved() && done->streaming) FinishCandidate(done);
  }
  NoteBuffered();
  if (!interleaved() && front_completed) AdvanceQueue();
}

void OutputTransducer::ReevaluateCandidates() {
  for (auto it = queue_.begin(); it != queue_.end();) {
    Candidate& c = *it;
    if (c.decided != Truth::kUnknown) {
      ++it;
      continue;
    }
    c.formula = c.formula.Simplify(context_->assignment, round_);
    c.decided = c.formula.Evaluate(context_->assignment, round_);
    if (!interleaved()) {
      ++it;
      continue;
    }
    if (c.decided == Truth::kTrue) {
      BeginStreaming(&c);
      if (c.complete) {
        FinishCandidate(it++);
        continue;
      }
    } else if (c.decided == Truth::kFalse) {
      DropCandidate(it++);
      continue;
    }
    ++it;
  }
}

void OutputTransducer::AdvanceQueue() {
  while (!queue_.empty()) {
    Candidate& front = queue_.front();
    if (front.decided == Truth::kUnknown) return;
    if (front.decided == Truth::kFalse) {
      DropCandidate(queue_.begin());
      continue;
    }
    // Decided true: emit what is buffered; stream the rest.
    if (!front.streaming) BeginStreaming(&front);
    if (!front.complete) return;  // later events stream via HandleDocument
    FinishCandidate(queue_.begin());
  }
}

void OutputTransducer::Flush() {
  // After </$> every qualifier scope has closed, so VC has determined every
  // remaining variable false and no candidate should still be unknown.
  // Decide defensively anyway (closed-world: unknown => false).
  for (Candidate& c : queue_) {
    if (c.decided == Truth::kUnknown) {
      Assignment closed = context_->assignment;
      for (VarId v : c.formula.Variables()) closed.Set(v, false);
      c.decided = c.formula.Evaluate(closed);
      assert(c.decided != Truth::kUnknown);
    }
  }
  if (!interleaved()) {
    AdvanceQueue();
  } else {
    for (auto it = queue_.begin(); it != queue_.end();) {
      auto victim = it++;
      if (victim->decided == Truth::kTrue) {
        if (!victim->streaming) BeginStreaming(&*victim);
        assert(victim->complete);
        FinishCandidate(victim);
      } else {
        DropCandidate(victim);
      }
    }
  }
  assert(queue_.empty());
}

void OutputTransducer::NoteBuffered() {
  output_stats_.buffered_events_peak =
      std::max(output_stats_.buffered_events_peak, buffered_events_);
  const obs::RunObserver& observer = context_->observer;
  if (observer.trace != nullptr && buffered_events_ != last_traced_buffered_) {
    // Occupancy counter track (recorder attached): sampled only on change so
    // the ring holds the interesting transitions, not one sample per event.
    observer.trace->RecordCounter(observer.trace_buffered_name,
                                  observer.trace->NowNs(), buffered_events_);
    last_traced_buffered_ = buffered_events_;
  }
}

void OutputTransducer::NoteDecision(const Candidate& candidate) {
  obs::Histogram* delay = context_->observer.output_decision_delay;
  if (delay != nullptr) delay->Observe(round_ - candidate.created_at_round);
}

}  // namespace spex
