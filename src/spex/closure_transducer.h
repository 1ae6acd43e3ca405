// Closure transducer CL(l) — paper §III.4, transition table Fig. 3.
//
// Implements the positive closure l+ : selects chains of nested <l> document
// messages starting at children of the activating message.  Kleene closure
// l* is derived by the compiler as (l+ | eps) through a split/join pair
// (Fig. 11).  The depth stack uses s (outermost scope), ns (nested scope),
// e (interrupted scope) and l (plain level) markers; a nested scope pushes
// the disjunction of the received and the enclosing formulas (rule 12).

#ifndef SPEX_SPEX_CLOSURE_TRANSDUCER_H_
#define SPEX_SPEX_CLOSURE_TRANSDUCER_H_

#include <string>
#include <vector>

#include "spex/transducer.h"

namespace spex {

class ClosureTransducer : public Transducer {
 public:
  ClosureTransducer(std::string label, bool wildcard, RunContext* context);

  enum class State : uint8_t { kWaiting, kMatching, kActivated1, kActivated2 };
  State state() const { return state_; }
  size_t depth_stack_size() const { return depth_.size(); }
  size_t condition_stack_size() const { return cond_.size(); }

 private:
  // The round walk: documents interleaved with the controls.
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
  // True for a start tag the step selects (`m` is a document message).
  bool Matches(const Message& m) const;
  void OnControl(Message& message, BatchEmitter* out);
  void OnDocument(const Message& message, BatchEmitter* out);

  std::string label_;
  bool wildcard_;
  Symbol symbol_;  // label_ interned at construction; one compare per event
  RunContext* context_;
  State state_ = State::kWaiting;
  std::vector<DepthSymbol> depth_;
  std::vector<Formula> cond_;
};

}  // namespace spex

#endif  // SPEX_SPEX_CLOSURE_TRANSDUCER_H_
