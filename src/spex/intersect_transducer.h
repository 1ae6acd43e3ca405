// Intersection transducer IS — the node-identity join of paper §I ("the
// prototype supports ... node-identity joins"), surfaced in the query
// language as `(p1 & p2)`.
//
// Like the join transducer it synchronizes two branches per document
// message; unlike JO — whose union-style output forwards every activation —
// IS emits an activation only when BOTH branches activated the same
// document message, carrying the conjunction of their formulas (the node
// must be reachable via both paths, and under both branches' conditions).
// Determinations pass through like in JO.

#ifndef SPEX_SPEX_INTERSECT_TRANSDUCER_H_
#define SPEX_SPEX_INTERSECT_TRANSDUCER_H_

#include "spex/transducer.h"

namespace spex {

class IntersectTransducer : public Transducer {
 public:
  IntersectTransducer();

 private:
  // Merges both input tapes of a sweep round by round (a control walk on
  // sparse tapes): per round, forwards the determinations, then emits
  // [f1 AND f2] if both sides activated the document message.  Both tapes
  // hold the same rounds, so nothing is kept across sweeps (DESIGN.md §11).
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
};

}  // namespace spex

#endif  // SPEX_SPEX_INTERSECT_TRANSDUCER_H_
