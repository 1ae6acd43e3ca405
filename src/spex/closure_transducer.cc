#include "spex/closure_transducer.h"

#include <cassert>

namespace spex {

ClosureTransducer::ClosureTransducer(std::string label, bool wildcard,
                                     RunContext* context)
    : Transducer("CL(" + (wildcard ? std::string("_") : label) + ")"),
      label_(std::move(label)),
      wildcard_(wildcard),
      symbol_(wildcard ? kNoSymbol : context->symbol_table()->Intern(label_)),
      context_(context) {}

bool ClosureTransducer::Matches(const Message& m) const {
  if (m.event_kind != EventKind::kStartElement) return false;
  if (wildcard_) return true;
  return m.symbol != kNoSymbol ? m.symbol == symbol_
                               : m.event().name == label_;
}

void ClosureTransducer::OnControl(Message& message, BatchEmitter* out) {
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
          // Double activation for one document message: OR-merge (see
          // DESIGN.md fidelity notes; not part of Fig. 3).
          Fire(101);
          cond_.back() = Formula::Or(cond_.back(), message.formula);
          break;
      }
      NoteConditionStack(cond_.size());
      NoteFormula(cond_.empty() ? Formula::True() : cond_.back());
      return;

    case MessageKind::kDetermination:  // (14)
      Fire(14);
      for (Formula& f : cond_) f = f.PruneFalse(context_->assignment, round_);
      EmitTo(out, 0, std::move(message));
      return;

    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

void ClosureTransducer::OnDocument(const Message& message, BatchEmitter* out) {
  if (message.is_text()) return;  // text carries no structure

  if (message.is_open()) {
    switch (state_) {
      case State::kWaiting:  // (2)
        Fire(2);
        depth_.push_back(DepthSymbol::kLevel);
        break;
      case State::kActivated1:  // (5)
        Fire(5);
        depth_.push_back(DepthSymbol::kScopeStart);
        state_ = State::kMatching;
        break;
      case State::kMatching:
        if (Matches(message)) {  // (7): match, chain continues below
          Fire(7);
          depth_.push_back(DepthSymbol::kLevel);
          EmitTo(out, 0, Message::Activation(cond_.back()));
        } else {  // (8): chain interrupted until this element closes
          Fire(8);
          depth_.push_back(DepthSymbol::kScopeEnd);
          state_ = State::kWaiting;
        }
        break;
      case State::kActivated2: {
        // cond: f1 (just received) above f2 (enclosing scope formula).
        assert(cond_.size() >= 2);
        const Formula f1 = cond_.back();
        const Formula f2 = cond_[cond_.size() - 2];
        if (Matches(message)) {  // (12): matches enclosing scope; nested
                                 // scope can match via both f1 and f2
          Fire(12);
          cond_.back() = Formula::Or(f1, f2);
          NoteFormula(cond_.back());
          depth_.push_back(DepthSymbol::kNestedScope);
          state_ = State::kMatching;
          EmitTo(out, 0, Message::Activation(f2));
        } else {  // (13): nested scope only
          Fire(13);
          depth_.push_back(DepthSymbol::kNestedScope);
          state_ = State::kMatching;
        }
        break;
      }
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
      } else {  // (4): the interrupting element closes, scope resumes
        assert(top == DepthSymbol::kScopeEnd);
        Fire(4);
        depth_.pop_back();
        state_ = State::kMatching;
      }
      break;
    case State::kMatching:
      if (top == DepthSymbol::kLevel) {  // (9): a matched element closes
        Fire(9);
        depth_.pop_back();
      } else if (top == DepthSymbol::kNestedScope) {  // (10)
        Fire(10);
        depth_.pop_back();
        assert(!cond_.empty());
        cond_.pop_back();
      } else {  // (11): the outermost scope closes
        assert(top == DepthSymbol::kScopeStart);
        Fire(11);
        depth_.pop_back();
        assert(!cond_.empty());
        cond_.pop_back();
        state_ = State::kWaiting;
      }
      break;
    case State::kActivated1:
    case State::kActivated2:
      assert(false && "close message while awaiting activating message");
      break;
  }
}

void ClosureTransducer::Sweep(Documents docs, Controls in0, Controls,
                             BatchEmitter* out) {
  WalkRounds(
      docs, in0, out, [&](Message& m) { OnControl(m, out); },
      [&](const Message& d) { OnDocument(d, out); });
}

}  // namespace spex
