#include "spex/union_transducer.h"

namespace spex {

UnionTransducer::UnionTransducer() : Transducer("UN") {}

void UnionTransducer::OnControl(Message& message, BatchEmitter* out) {
  if (message.is_determination()) {  // (4)
    Fire(4);
    EmitTo(out, 0, std::move(message));
    return;
  }
  if (state_ == State::kWaiting) {  // (1): store, await a possible second
    Fire(1);
    stored_ = message.formula;
    state_ = State::kActivate;
    return;
  }
  // (2): both branches matched: emit the disjunction
  Fire(2);
  Formula merged = Formula::Or(stored_, message.formula);
  NoteFormula(merged);
  EmitTo(out, 0, Message::Activation(std::move(merged)));
  stored_ = Formula::True();
  state_ = State::kWaiting;
}

void UnionTransducer::OnDocument(BatchEmitter* out) {
  if (state_ != State::kActivate) return;
  Fire(3);  // (3): only one branch matched
  EmitTo(out, 0, Message::Activation(stored_));
  stored_ = Formula::True();
  state_ = State::kWaiting;
}

void UnionTransducer::Sweep(Documents docs, Controls in0, Controls,
                            BatchEmitter* out) {
  if (traced()) [[unlikely]] {
    WalkRounds(
        docs, in0, out, [&](Message& m) { OnControl(m, out); },
        [&](const Message&) { OnDocument(out); });
    return;
  }
  // The control walk: a stored activation is settled at its round's
  // document message, i.e. before the first control of a later round.  An
  // activation stored at the end of the previous call waits for document 0.
  size_t stored_at = 0;
  for (Control& c : in0) {
    if (state_ == State::kActivate && c.at != stored_at) {
      out->At(stored_at);
      OnDocument(out);
    }
    out->At(c.at);
    if (state_ == State::kWaiting) stored_at = c.at;
    OnControl(c.message, out);
  }
  if (state_ == State::kActivate && stored_at < docs.size()) {
    out->At(stored_at);
    OnDocument(out);
  }
}

}  // namespace spex
