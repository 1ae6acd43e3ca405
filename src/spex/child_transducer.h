// Child transducer CH(l) — paper §III.3, transition table Fig. 2.
//
// Selects <l> document messages that are *direct children* of the activating
// document message.  The depth stack distinguishes plain levels (l) from
// levels whose closing tag re-enters the match scope (m); the condition
// stack holds the formula of each active match scope.

#ifndef SPEX_SPEX_CHILD_TRANSDUCER_H_
#define SPEX_SPEX_CHILD_TRANSDUCER_H_

#include <string>
#include <vector>

#include "spex/transducer.h"

namespace spex {

class ChildTransducer : public Transducer {
 public:
  // `label` is the label to select; `wildcard` makes it match any element.
  ChildTransducer(std::string label, bool wildcard, RunContext* context);

  // Exposed for white-box tests.
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

#endif  // SPEX_SPEX_CHILD_TRANSDUCER_H_
