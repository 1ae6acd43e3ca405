// Following FO(l) and preceding PR(l) transducers.
//
// The paper's prototype "supports also other XPath navigational
// capabilities, i.e. following and preceding" (§I).  These axes relate
// nodes by document order:
//
//   following::l  — l elements whose start tag comes after the context
//                   node's end tag.  Streamed directly: once an activating
//                   element closes, its formula is "armed" and every later
//                   matching start tag is selected under the disjunction of
//                   all armed formulas.
//   preceding::l  — l elements whose end tag comes before the context
//                   node's start tag.  The matches lie in the *past* when
//                   the context arrives, so PR(l) speculatively emits every
//                   matching element under a fresh condition variable and
//                   determines the variable true when a context activation
//                   arrives later (a "future condition" in the §VI sense);
//                   variables still open at the end of the stream are
//                   invalidated.
//
// Both are 1-DPDT like the other network transducers: the depth stack
// tracks the activating scopes, the condition stack their formulas.

#ifndef SPEX_SPEX_ORDER_TRANSDUCERS_H_
#define SPEX_SPEX_ORDER_TRANSDUCERS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "spex/transducer.h"

namespace spex {

class FollowingTransducer : public Transducer {
 public:
  // `enclosing_qualifiers` are the ids of the qualifiers whose bodies hold
  // this step, innermost last (set by the compiler).  Their variables stay
  // symbolic in FO's formulas: VF and VD, downstream, attribute a body match
  // to its qualifier instances by them, and VD binds them — FO reading them
  // would depend on how far a sweep ran ahead of VD.
  FollowingTransducer(std::string label, bool wildcard, RunContext* context,
                      std::vector<uint32_t> enclosing_qualifiers = {});

 private:
  // The round walk: documents interleaved with the controls.
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
  // True for a start tag the step selects (`m` is a document message).
  bool Matches(const Message& m) const;
  void OnControl(Message& message, BatchEmitter* out);
  void OnDocument(const Message& message, BatchEmitter* out);
  // The rewrite rule (the paper's update(c,v,beta)): substitutes every
  // variable bound as of this round except the enclosing qualifiers'.  An
  // armed disjunct that holds folds the formula to `true`, and no retired
  // variable survives its round in a formula, so the end-of-sweep GC may
  // erase its binding.
  Formula Update(const Formula& f) const;

  std::string label_;
  bool wildcard_;
  Symbol symbol_;  // label_ interned at construction; one compare per event
  RunContext* context_;
  std::vector<uint32_t> enclosing_qualifiers_;
  // Depth stack; levels carrying a pending activation hold its formula,
  // which is armed (merged into armed_) when the level closes.
  struct Level {
    bool has_formula = false;
    Formula formula;
  };
  std::vector<Level> depth_;
  bool pending_activation_ = false;
  Formula pending_formula_;
  // Disjunction of all closed contexts' formulas; false until the first
  // context closes.
  Formula armed_ = Formula::False();
};

class PrecedingTransducer : public Transducer {
 public:
  // `qualifier_id` tags the speculative condition variables this transducer
  // creates (the compiler allocates a dedicated id per PR step).
  //
  // In `evidence_mode` (set by the compiler when the step is the tail of a
  // qualifier body) the transducer does not speculate: a qualifier only
  // needs to know whether SOME matching element closed before the context,
  // which is a structural fact available when the context's activation
  // arrives — the incoming formula is then re-emitted as the body-match
  // evidence.  Outside qualifier bodies the speculative variables make the
  // past matches themselves addressable as candidates.
  PrecedingTransducer(std::string label, bool wildcard, uint32_t qualifier_id,
                      RunContext* context, bool evidence_mode = false);

  size_t open_speculation_count() const { return speculative_.size(); }

 private:
  // The round walk: documents interleaved with the controls.
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
  // True for a start tag the step selects (`m` is a document message).
  bool Matches(const Message& m) const;
  void OnControl(Message& message, BatchEmitter* out);
  void OnDocument(const Message& message, BatchEmitter* out);
  // Satisfies all fully-closed speculative variables under `formula`.
  void SatisfyClosed(const Formula& formula, BatchEmitter* out);

  std::string label_;
  bool wildcard_;
  Symbol symbol_;  // label_ interned at construction; one compare per event
  uint32_t qualifier_id_;
  RunContext* context_;
  struct Speculation {
    VarId var;
    int open_depth;  // the depth at which the speculative element opened
  };
  // Candidates whose elements are not fully closed yet (they cannot precede
  // any future context).  Closed ones move to closed_, each with a pending
  // condition (the disjunction of the formulas of contexts seen since).
  std::vector<Speculation> speculative_;
  std::vector<VarId> closed_;
  std::unordered_map<VarId, Formula> conditions_;
  int depth_ = 0;
  bool evidence_mode_ = false;
  // evidence mode: open matching elements (depths) and closed-match count.
  std::vector<int> open_matches_;
  int64_t closed_matches_ = 0;
};

}  // namespace spex

#endif  // SPEX_SPEX_ORDER_TRANSDUCERS_H_
