#include "spex/order_transducers.h"

#include <cassert>

namespace spex {

FollowingTransducer::FollowingTransducer(
    std::string label, bool wildcard, RunContext* context,
    std::vector<uint32_t> enclosing_qualifiers)
    : Transducer("FO(" + (wildcard ? std::string("_") : label) + ")"),
      label_(std::move(label)),
      wildcard_(wildcard),
      symbol_(wildcard ? kNoSymbol : context->symbol_table()->Intern(label_)),
      context_(context),
      enclosing_qualifiers_(std::move(enclosing_qualifiers)) {}

bool FollowingTransducer::Matches(const Message& m) const {
  if (m.event_kind != EventKind::kStartElement) return false;
  if (wildcard_) return true;
  return m.symbol != kNoSymbol ? m.symbol == symbol_
                               : m.event().name == label_;
}

void FollowingTransducer::Sweep(Documents docs, Controls in0, Controls,
                               BatchEmitter* out) {
  WalkRounds(
      docs, in0, out, [&](Message& m) { OnControl(m, out); },
      [&](const Message& d) { OnDocument(d, out); });
}

Formula FollowingTransducer::Update(const Formula& f) const {
  return f.Simplify(context_->assignment, round_, &enclosing_qualifiers_);
}

void FollowingTransducer::OnControl(Message& message, BatchEmitter* out) {
  switch (message.kind) {
    case MessageKind::kActivation:
      Fire(1);
      if (pending_activation_) {
        pending_formula_ = Formula::Or(pending_formula_, message.formula);
      } else {
        pending_activation_ = true;
        pending_formula_ = message.formula;
      }
      return;
    case MessageKind::kDetermination:
      Fire(5);
      armed_ = Update(armed_);
      for (Level& level : depth_) {
        if (level.has_formula) level.formula = Update(level.formula);
      }
      EmitTo(out, 0, std::move(message));
      return;
    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

void FollowingTransducer::OnDocument(const Message& message,
                                     BatchEmitter* out) {
  if (message.is_text()) return;

  if (message.is_open()) {
    // A matching element that starts after some armed context's end is
    // selected under the disjunction of the armed formulas (2); it can
    // simultaneously open a new pending context level (3).
    if (Matches(message) && !armed_.is_false()) {
      Fire(2);
      EmitTo(out, 0, Message::Activation(armed_));
    } else {
      Fire(3);
    }
    Level level;
    level.has_formula = pending_activation_;
    if (pending_activation_) {
      level.formula = pending_formula_;
      pending_activation_ = false;
      pending_formula_ = Formula::True();
    }
    depth_.push_back(std::move(level));
    NoteDepthStack(depth_.size());
    return;
  }

  // Closing message: a pending context level arms its formula (4).
  assert(!depth_.empty());
  Level level = std::move(depth_.back());
  depth_.pop_back();
  Fire(4);
  if (level.has_formula) {
    armed_ = Update(Formula::Or(armed_, level.formula));
    NoteFormula(armed_);
  }
  if (depth_.empty()) {
    // End of the document: nothing follows </$>.
    armed_ = Formula::False();
  }
}

PrecedingTransducer::PrecedingTransducer(std::string label, bool wildcard,
                                         uint32_t qualifier_id,
                                         RunContext* context,
                                         bool evidence_mode)
    : Transducer("PR(" + (wildcard ? std::string("_") : label) + ")"),
      label_(std::move(label)),
      wildcard_(wildcard),
      symbol_(wildcard ? kNoSymbol : context->symbol_table()->Intern(label_)),
      qualifier_id_(qualifier_id),
      context_(context),
      evidence_mode_(evidence_mode) {}

bool PrecedingTransducer::Matches(const Message& m) const {
  if (m.event_kind != EventKind::kStartElement) return false;
  if (wildcard_) return true;
  return m.symbol != kNoSymbol ? m.symbol == symbol_
                               : m.event().name == label_;
}

void PrecedingTransducer::SatisfyClosed(const Formula& formula,
                                        BatchEmitter* out) {
  // A context arriving NOW can only satisfy candidates that are already
  // fully closed.  The candidate's condition becomes the disjunction over
  // all later contexts' formulas.
  const Assignment& assignment = context_->assignment;
  size_t kept = 0;
  for (size_t i = 0; i < closed_.size(); ++i) {
    VarId v = closed_[i];
    if (assignment.Get(v, round_) != Truth::kUnknown) continue;
    conditions_[v] = Formula::Or(conditions_[v], formula);
    switch (conditions_[v].Evaluate(assignment, round_)) {
      case Truth::kTrue:
        if (context_->assignment.Set(v, true, round_)) {
          EmitTo(out, 0, Message::Determination(v, true));
        }
        // The candidate element is closed and its OU entry resolves this
        // round: the binding can be garbage-collected.
        context_->retired_variables.push_back(v);
        conditions_.erase(v);
        break;
      case Truth::kFalse:
      case Truth::kUnknown:
        conditions_[v] = conditions_[v].Simplify(assignment, round_);
        closed_[kept++] = v;
        break;
    }
  }
  closed_.resize(kept);
}

void PrecedingTransducer::Sweep(Documents docs, Controls in0, Controls,
                               BatchEmitter* out) {
  WalkRounds(
      docs, in0, out, [&](Message& m) { OnControl(m, out); },
      [&](const Message& d) { OnDocument(d, out); });
}

void PrecedingTransducer::OnControl(Message& message, BatchEmitter* out) {
  switch (message.kind) {
    case MessageKind::kActivation:
      Fire(1);
      if (evidence_mode_) {
        // The qualifier body is satisfied for this context iff some
        // matching element already closed — re-emit the context's formula
        // as the body-match evidence for VF/VD.
        if (closed_matches_ > 0) {
          EmitTo(out, 0, Message::Activation(message.formula));
        }
      } else {
        SatisfyClosed(message.formula, out);
      }
      return;
    case MessageKind::kDetermination: {
      Fire(5);
      // Re-check pending conditions under the new assignment.
      const Assignment& assignment = context_->assignment;
      size_t kept = 0;
      for (size_t i = 0; i < closed_.size(); ++i) {
        VarId v = closed_[i];
        if (assignment.Get(v, round_) != Truth::kUnknown) continue;
        switch (conditions_[v].Evaluate(assignment, round_)) {
          case Truth::kTrue:
            if (context_->assignment.Set(v, true, round_)) {
              EmitTo(out, 0, Message::Determination(v, true));
            }
            context_->retired_variables.push_back(v);
            conditions_.erase(v);
            break;
          default:
            conditions_[v] = conditions_[v].Simplify(assignment, round_);
            closed_[kept++] = v;
            break;
        }
      }
      closed_.resize(kept);
      EmitTo(out, 0, std::move(message));
      return;
    }
    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

void PrecedingTransducer::OnDocument(const Message& message,
                                     BatchEmitter* out) {
  if (message.is_text()) return;

  if (message.is_open()) {
    ++depth_;
    if (Matches(message)) {  // (2): speculate — a later context may follow
      Fire(2);
      if (evidence_mode_) {
        open_matches_.push_back(depth_);
      } else {
        VarId v = context_->allocator.Next(qualifier_id_);
        speculative_.push_back({v, depth_});
        conditions_[v] = Formula::False();
        NoteConditionStack(speculative_.size() + closed_.size());
        EmitTo(out, 0, Message::Activation(Formula::Var(v)));
      }
    } else {
      Fire(3);
    }
    return;
  }

  // Closing message.
  Fire(4);
  --depth_;
  // Matches opened at depth_+1 are now fully closed (LIFO order).
  while (!open_matches_.empty() && open_matches_.back() > depth_) {
    ++closed_matches_;
    open_matches_.pop_back();
  }
  while (!speculative_.empty() && speculative_.back().open_depth > depth_) {
    closed_.push_back(speculative_.back().var);
    speculative_.pop_back();
  }
  if (depth_ == 0) {
    // End of the document: nothing can follow, so every still-pending
    // speculative variable is invalidated.
    for (VarId v : closed_) {
      if (context_->assignment.Set(v, false, round_)) {
        EmitTo(out, 0, Message::Determination(v, false));
      }
      context_->retired_variables.push_back(v);
      conditions_.erase(v);
    }
    closed_.clear();
    closed_matches_ = 0;
  }
}

}  // namespace spex
