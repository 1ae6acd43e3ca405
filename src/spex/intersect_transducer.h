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
  // Walks both pending input sequences of a sweep round by round: per
  // round, forwards the determinations, then emits [f1 AND f2] if both
  // sides activated the document message, then the document message once.
  // Both sequences hold the same rounds, so nothing is kept across sweeps
  // (DESIGN.md §11).
  void ProcessPair(Message* left, size_t left_count, Message* right,
                   size_t right_count, BatchEmitter* out) override;
};

}  // namespace spex

#endif  // SPEX_SPEX_INTERSECT_TRANSDUCER_H_
