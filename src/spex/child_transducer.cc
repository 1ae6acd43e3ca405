#include "spex/child_transducer.h"

#include <cassert>

namespace spex {

ChildTransducer::ChildTransducer(std::string label, bool wildcard,
                                 RunContext* context)
    : Transducer("CH(" + (wildcard ? std::string("_") : label) + ")"),
      label_(std::move(label)),
      wildcard_(wildcard),
      symbol_(wildcard ? kNoSymbol : context->symbol_table()->Intern(label_)),
      context_(context) {}

bool ChildTransducer::Matches(const Message& m) const {
  // <$> is never matched by a label: the document root is not an element.
  if (m.event_kind != EventKind::kStartElement) return false;
  if (wildcard_) return true;
  // Interned events take the integer fast path; hand-built events (symbol 0)
  // fall back to the string compare.
  return m.symbol != kNoSymbol ? m.symbol == symbol_
                               : m.event().name == label_;
}

void ChildTransducer::OnControl(Message& message, BatchEmitter* out) {
  switch (message.kind) {
    case MessageKind::kActivation:
      switch (state_) {
        case State::kWaiting:  // (1)
          Fire(1);
          cond_.push_back(message.formula);
          state_ = State::kActivated1;
          break;
        case State::kMatching:  // (6)
          Fire(6);
          cond_.push_back(message.formula);
          state_ = State::kActivated2;
          break;
        case State::kActivated1:
        case State::kActivated2:
          // Two activations for the same document message (possible after a
          // join merges a branch's activation with an upstream one): the
          // element matches if either condition holds, so merge with OR.
          // This transition is not in Fig. 2 — see DESIGN.md fidelity notes.
          Fire(101);
          cond_.back() = Formula::Or(cond_.back(), message.formula);
          break;
      }
      NoteConditionStack(cond_.size());
      NoteFormula(cond_.empty() ? Formula::True() : cond_.back());
      return;

    case MessageKind::kDetermination:  // (13)
      Fire(13);
      for (Formula& f : cond_) f = f.PruneFalse(context_->assignment, round_);
      EmitTo(out, 0, std::move(message));
      return;

    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

void ChildTransducer::OnDocument(const Message& message, BatchEmitter* out) {
  if (message.is_text()) return;  // text carries no structure

  if (message.is_open()) {
    switch (state_) {
      case State::kWaiting:  // (2)
        Fire(2);
        depth_.push_back(DepthSymbol::kLevel);
        break;
      case State::kActivated1:  // (5)
        Fire(5);
        depth_.push_back(DepthSymbol::kLevel);
        state_ = State::kMatching;
        break;
      case State::kMatching:
        if (Matches(message)) {  // (7)
          Fire(7);
          EmitTo(out, 0, Message::Activation(cond_.back()));
        } else {  // (8)
          Fire(8);
        }
        depth_.push_back(DepthSymbol::kMatch);
        state_ = State::kWaiting;
        break;
      case State::kActivated2:
        // The condition stack holds f1 (just received) above f2 (the
        // enclosing scope's formula).
        assert(cond_.size() >= 2);
        if (Matches(message)) {  // (11): matches the enclosing scope via f2
          Fire(11);
          EmitTo(out, 0, Message::Activation(cond_[cond_.size() - 2]));
        } else {  // (12)
          Fire(12);
        }
        depth_.push_back(DepthSymbol::kMatch);
        state_ = State::kMatching;
        break;
    }
    NoteDepthStack(depth_.size());
    return;
  }

  // Closing document message.
  assert(!depth_.empty());
  const DepthSymbol top = depth_.back();
  switch (state_) {
    case State::kWaiting:
      if (top == DepthSymbol::kLevel) {  // (3)
        Fire(3);
        depth_.pop_back();
      } else {  // (4): back at the level below a previous match attempt
        assert(top == DepthSymbol::kMatch);
        Fire(4);
        depth_.pop_back();
        state_ = State::kMatching;
      }
      break;
    case State::kMatching:
      if (top == DepthSymbol::kLevel) {  // (9): the activating element closes
        Fire(9);
        depth_.pop_back();
        assert(!cond_.empty());
        cond_.pop_back();
        state_ = State::kWaiting;
      } else {  // (10): a nested activation scope closes
        assert(top == DepthSymbol::kMatch);
        Fire(10);
        depth_.pop_back();
        assert(!cond_.empty());
        cond_.pop_back();
      }
      break;
    case State::kActivated1:
    case State::kActivated2:
      // An activation is always immediately followed by its (opening)
      // document message; a close here is a protocol violation.
      assert(false && "close message while awaiting activating message");
      break;
  }
}

void ChildTransducer::Sweep(Documents docs, Controls in0, Controls,
                           BatchEmitter* out) {
  WalkRounds(
      docs, in0, out, [&](Message& m) { OnControl(m, out); },
      [&](const Message& d) { OnDocument(d, out); });
}

}  // namespace spex
