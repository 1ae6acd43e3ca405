// Qualifier transducers (paper §III.5).
//
// A qualifier [q] adds three transducers to the network:
//   * VC(q)  — variable creator (Fig. 6): instantiates a fresh condition
//     variable c for every activation and rewrites the activation formula to
//     f AND c; when the instance's scope closes it emits {c,false}.
//   * VF(q+) — positive variable filter: reduces the formulas of incoming
//     activations to the variables belonging to q *and to qualifiers nested
//     inside q's body* (those have strictly larger qualifier ids, because
//     the compiler allocates ids in construction order); variables of outer
//     qualifiers are erased.  VF(q-) instead erases q's variables.
//   * VD(q)  — variable determinant (Fig. 7): a q-instance reaching it
//     inside an activation is satisfied — immediately ({c,true}) if the
//     body match is unconditional, or once the nested qualifiers' variables
//     it depends on are determined true (the instance is kept pending until
//     then; a pending instance whose condition becomes false is discarded
//     and VC's scope-exit {c,false} eventually decides it).

#ifndef SPEX_SPEX_QUALIFIER_TRANSDUCERS_H_
#define SPEX_SPEX_QUALIFIER_TRANSDUCERS_H_

#include <vector>

#include "spex/network.h"
#include "spex/transducer.h"

namespace spex {

class VariableCreatorTransducer : public Transducer {
 public:
  // When `defer_invalidation` is set (the compiler sets it for qualifier
  // bodies containing a following axis, whose matches can arrive after the
  // instance's scope closed), the scope-exit {c,false} is postponed to the
  // end of the document.  `scope_exits` is the compiler's record of the end
  // tags at which this VC reads its variables (a share of the network's
  // sweep cuts); debug builds check every invalidation against it.
  VariableCreatorTransducer(uint32_t qualifier_id, RunContext* context,
                            bool defer_invalidation = false,
                            const LabelSet& scope_exits = LabelSet::All());

  enum class State : uint8_t { kWorking, kActivate };
  State state() const { return state_; }
  size_t condition_stack_size() const { return vars_.size(); }

 private:
  // The round walk: documents interleaved with the controls.
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
  void OnControl(Message& message, BatchEmitter* out);
  void OnDocument(const Message& message, BatchEmitter* out);

  // Invalidates `c` unless VD already satisfied it; `end_tag` is the
  // closing message of the round.
  void Invalidate(VarId c, const Message& end_tag, BatchEmitter* out);

  uint32_t qualifier_id_;
  RunContext* context_;
  bool defer_invalidation_;
#ifndef NDEBUG
  LabelSet scope_exits_;
#endif
  State state_ = State::kWorking;
  std::vector<DepthSymbol> depth_;
  std::vector<VarId> vars_;  // the condition stack holds created variables
  std::vector<VarId> deferred_;  // scope-closed, invalidated at </$>
};

class VariableFilterTransducer : public Transducer {
 public:
  // `positive` selects VF(q+) (keep only q's variables) over VF(q-) (erase
  // q's variables).
  VariableFilterTransducer(uint32_t qualifier_id, bool positive,
                           RunContext* context);

 private:
  // The control walk: activations are filtered, determinations forwarded.
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
  void OnControl(Message& message, BatchEmitter* out);

  uint32_t qualifier_id_;
  bool positive_;
  RunContext* context_;
  // Per-activation scratch, reused so the hot filter path stays
  // allocation-free (Clear keeps capacity on both).
  Assignment erase_scratch_;
  std::vector<VarId> vars_scratch_;
};

class VariableDeterminantTransducer : public Transducer {
 public:
  VariableDeterminantTransducer(uint32_t qualifier_id, RunContext* context);

  size_t pending_count() const { return pending_.size(); }

 private:
  // The control walk: VD emits only its own determinations.
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;

  struct PendingInstance {
    VarId var;        // the q-instance to determine
    Formula condition;  // over nested qualifiers' variables
  };

  void OnControl(Message& message, BatchEmitter* out);
  // Tries to satisfy instance `var` under `condition`; emits {var,true} if
  // the condition holds, stores a pending entry if it is still unknown.
  void Determine(VarId var, Formula condition, BatchEmitter* out);
  // Re-evaluates pending instances against the global assignment.
  void RecheckPending(BatchEmitter* out);

  uint32_t qualifier_id_;
  RunContext* context_;
  std::vector<PendingInstance> pending_;
  // Per-activation scratch (see VariableFilterTransducer).
  Assignment isolate_scratch_;
  std::vector<VarId> vars_scratch_;
  std::vector<VarId> own_scratch_;
};

}  // namespace spex

#endif  // SPEX_SPEX_QUALIFIER_TRANSDUCERS_H_
