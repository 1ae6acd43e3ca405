// Union transducer UN (paper §III.7, Fig. 10).
//
// A connector that merges the activation messages of two branches (already
// interleaved by a join) into a single activation carrying the disjunction
// of their formulas.  If only one branch activated a document message, the
// stored formula is forwarded unchanged.  On sparse tapes (transducer.h) UN
// visits its controls, plus a document message only where a stored
// activation waits for it (rule 3).

#ifndef SPEX_SPEX_UNION_TRANSDUCER_H_
#define SPEX_SPEX_UNION_TRANSDUCER_H_

#include <optional>

#include "spex/transducer.h"

namespace spex {

class UnionTransducer : public Transducer {
 public:
  UnionTransducer();

  enum class State : uint8_t { kWaiting, kActivate };
  State state() const { return state_; }

 private:
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
  void OnControl(Message& message, BatchEmitter* out);
  // The document message of the round: rule 3 if an activation waits.
  void OnDocument(BatchEmitter* out);

  State state_ = State::kWaiting;
  Formula stored_;  // the one condition-stack entry of Fig. 10
};

}  // namespace spex

#endif  // SPEX_SPEX_UNION_TRANSDUCER_H_
