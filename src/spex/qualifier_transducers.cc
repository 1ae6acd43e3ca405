#include "spex/qualifier_transducers.h"

#include <cassert>

namespace spex {

VariableCreatorTransducer::VariableCreatorTransducer(
    uint32_t qualifier_id, RunContext* context, bool defer_invalidation,
    const LabelSet& scope_exits)
    : Transducer("VC(q" + std::to_string(qualifier_id) + ")"),
      qualifier_id_(qualifier_id),
      context_(context),
      defer_invalidation_(defer_invalidation) {
#ifndef NDEBUG
  scope_exits_ = scope_exits;
#else
  (void)scope_exits;
#endif
}

void VariableCreatorTransducer::Sweep(Documents docs, Controls in0, Controls,
                                      BatchEmitter* out) {
  WalkRounds(
      docs, in0, out, [&](Message& m) { OnControl(m, out); },
      [&](const Message& d) { OnDocument(d, out); });
}

void VariableCreatorTransducer::Invalidate(VarId c, const Message& end_tag,
                                           BatchEmitter* out) {
  // The one assignment read a round stamp cannot order: `c` is bound true
  // by VD, downstream of VC.  The engine never sweeps a start tag together
  // with a later end tag in the compiled cut set, so every round that could
  // have satisfied `c` was swept before this one (DESIGN.md §11).
  assert(scope_exits_.ContainsEnd(end_tag.event_kind, end_tag.event().name) &&
         "scope exit at an end tag outside the compiled sweep cuts");
  (void)end_tag;
  // First determination wins: if VD already satisfied the instance, the
  // scope-exit invalidation is suppressed (cf. Fig. 13, where no {co1,
  // false} is sent at the outer </a> after <b> satisfied the qualifier).
  if (context_->assignment.Set(c, false, round_)) {
    EmitTo(out, 0, Message::Determination(c, false));
  }
  // The scope is the last structural context that can mention c: schedule
  // its binding for end-of-round garbage collection.
  context_->retired_variables.push_back(c);
}

void VariableCreatorTransducer::OnControl(Message& message,
                                          BatchEmitter* out) {
  switch (message.kind) {
    case MessageKind::kActivation:
      if (state_ == State::kWorking) {  // (1): create a fresh instance
        Fire(1);
        VarId c = context_->allocator.Next(qualifier_id_);
        vars_.push_back(c);
        NoteConditionStack(vars_.size());
        Formula activated = Formula::And(message.formula, Formula::Var(c));
        NoteFormula(activated);
        EmitTo(out, 0, Message::Activation(std::move(activated)));
        state_ = State::kActivate;
      } else {  // second activation for the same message: reuse the instance
        Fire(101);
        assert(!vars_.empty());
        EmitTo(out, 0,
               Message::Activation(Formula::And(message.formula,
                                                Formula::Var(vars_.back()))));
      }
      return;
    case MessageKind::kDetermination:  // (6)
      Fire(6);
      EmitTo(out, 0, std::move(message));
      return;
    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

void VariableCreatorTransducer::OnDocument(const Message& message,
                                           BatchEmitter* out) {
  if (message.is_text()) return;

  if (message.is_open()) {
    if (state_ == State::kActivate) {  // (5): the instance's scope opens
      Fire(5);
      depth_.push_back(DepthSymbol::kScopeStart);
      state_ = State::kWorking;
    } else {  // (2)
      Fire(2);
      depth_.push_back(DepthSymbol::kLevel);
    }
    NoteDepthStack(depth_.size());
    return;
  }

  // Closing document message.
  assert(state_ == State::kWorking);
  assert(!depth_.empty());
  if (depth_.back() == DepthSymbol::kScopeStart) {  // (4): invalidate c
    Fire(4);
    depth_.pop_back();
    assert(!vars_.empty());
    VarId c = vars_.back();
    vars_.pop_back();
    if (defer_invalidation_) {
      // The body contains a following axis: its matches may still arrive
      // after the scope closed, so the verdict waits for </$>.
      deferred_.push_back(c);
    } else {
      Invalidate(c, message, out);
    }
  } else {  // (3)
    Fire(3);
    depth_.pop_back();
  }
  if (depth_.empty() && !deferred_.empty()) {
    // End of the document: nothing can follow, so deferred instances that
    // were never satisfied are invalidated now.
    for (VarId c : deferred_) Invalidate(c, message, out);
    deferred_.clear();
  }
}

VariableFilterTransducer::VariableFilterTransducer(uint32_t qualifier_id,
                                                   bool positive,
                                                   RunContext* context)
    : Transducer("VF(q" + std::to_string(qualifier_id) +
                 (positive ? "+)" : "-)")),
      qualifier_id_(qualifier_id),
      positive_(positive),
      context_(context) {}

void VariableFilterTransducer::Sweep(Documents docs, Controls in0, Controls,
                                     BatchEmitter* out) {
  WalkControls(
      docs, in0, out, [&](Message& m) { OnControl(m, out); },
      [&](const Message&) { Fire(4); });
}

void VariableFilterTransducer::OnControl(Message& message,
                                         BatchEmitter* out) {
  switch (message.kind) {
    case MessageKind::kActivation: {
      if (positive_) {
        // (q+): keep q's variables and those of qualifiers nested inside
        // q's body (ids > qualifier_id_); erase outer variables, which only
        // condition the *candidate*, not the body match itself.
        Fire(1);
        erase_scratch_.Clear();
        vars_scratch_.clear();
        message.formula.AppendVariables(&vars_scratch_);
        bool has_own_var = false;
        for (VarId v : vars_scratch_) {
          if (VarQualifier(v) < qualifier_id_) {
            erase_scratch_.Set(v, true);
          } else if (VarQualifier(v) == qualifier_id_) {
            has_own_var = true;
          }
        }
        if (has_own_var) {
          EmitTo(out, 0,
                 Message::Activation(message.formula.Simplify(erase_scratch_)));
        }
      } else {
        // (q-): erase q's variables (treat them as satisfied).
        Fire(2);
        erase_scratch_.Clear();
        vars_scratch_.clear();
        message.formula.AppendVariablesOfQualifier(qualifier_id_,
                                                   &vars_scratch_);
        for (VarId v : vars_scratch_) erase_scratch_.Set(v, true);
        EmitTo(out, 0,
               Message::Activation(message.formula.Simplify(erase_scratch_)));
      }
      return;
    }
    case MessageKind::kDetermination:
      Fire(3);
      EmitTo(out, 0, std::move(message));
      return;
    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

VariableDeterminantTransducer::VariableDeterminantTransducer(
    uint32_t qualifier_id, RunContext* context)
    : Transducer("VD(q" + std::to_string(qualifier_id) + ")"),
      qualifier_id_(qualifier_id),
      context_(context) {}

void VariableDeterminantTransducer::Determine(VarId var, Formula condition,
                                              BatchEmitter* out) {
  const Assignment& assignment = context_->assignment;
  switch (condition.Evaluate(assignment, round_)) {
    case Truth::kTrue:
      if (context_->assignment.Set(var, true, round_)) {
        EmitTo(out, 0, Message::Determination(var, true));
      }
      break;
    case Truth::kFalse:
      // This body match never materializes; another may, and otherwise the
      // creator's scope-exit {var,false} settles the instance.
      break;
    case Truth::kUnknown:
      pending_.push_back({var, condition.Simplify(assignment, round_)});
      NoteConditionStack(pending_.size());
      break;
  }
}

void VariableDeterminantTransducer::RecheckPending(BatchEmitter* out) {
  const Assignment& assignment = context_->assignment;
  size_t kept = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    PendingInstance& p = pending_[i];
    if (assignment.Get(p.var, round_) != Truth::kUnknown) {
      continue;  // already settled elsewhere
    }
    switch (p.condition.Evaluate(assignment, round_)) {
      case Truth::kTrue:
        if (context_->assignment.Set(p.var, true, round_)) {
          EmitTo(out, 0, Message::Determination(p.var, true));
        }
        break;
      case Truth::kFalse:
        break;
      case Truth::kUnknown:
        p.condition = p.condition.Simplify(assignment, round_);
        pending_[kept++] = std::move(p);
        break;
    }
  }
  pending_.resize(kept);
}

void VariableDeterminantTransducer::Sweep(Documents docs, Controls in0,
                                          Controls, BatchEmitter* out) {
  WalkControls(
      docs, in0, out, [&](Message& m) { OnControl(m, out); },
      [](const Message&) {});
}

void VariableDeterminantTransducer::OnControl(Message& message,
                                              BatchEmitter* out) {
  switch (message.kind) {
    case MessageKind::kActivation: {
      // (1): an instance reaching VD is satisfied as soon as the nested
      // qualifiers' conditions it carries are.  Isolate each q-instance by
      // assuming the other instances false (disjunction branches from
      // closure scopes are independent).
      Fire(1);
      vars_scratch_.clear();
      message.formula.AppendVariables(&vars_scratch_);
      own_scratch_.clear();
      for (VarId v : vars_scratch_) {
        if (VarQualifier(v) == qualifier_id_) own_scratch_.push_back(v);
      }
      for (VarId v : own_scratch_) {
        // An instance already decided needs no evidence.  Only VC, upstream,
        // and VD itself bind own variables, so this read is the same
        // whatever the sweep size.
        if (context_->assignment.Get(v, round_) != Truth::kUnknown) continue;
        // Fresh isolation assignment (NOT a copy of the global one — the
        // other instances may already be globally true and must still be
        // forced false here to isolate v's disjunct): v's own disjunct is
        // selected, and the residue is the condition over the nested
        // qualifiers' variables it carries.
        isolate_scratch_.Clear();
        isolate_scratch_.Set(v, true);
        for (VarId other : own_scratch_) {
          if (other != v) isolate_scratch_.Set(other, false);
        }
        Determine(v, message.formula.Simplify(isolate_scratch_), out);
      }
      return;
    }
    case MessageKind::kDetermination:  // (2): dropped — the main branch
      Fire(2);                         // already carries determinations —
      RecheckPending(out);             // but pending instances may resolve
      return;
    case MessageKind::kDocument:
      assert(false && "document messages are not on the control tape");
      return;
  }
}

}  // namespace spex
