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

#include <deque>

#include "spex/transducer.h"

namespace spex {

class IntersectTransducer : public Transducer {
 public:
  IntersectTransducer();

 private:
  // Bulk enqueue followed by a single drain; Drain processes whole rounds,
  // so its output depends only on the two input sequences (DESIGN.md §11).
  void ProcessBatch(int port, Message* messages, size_t count,
                    BatchEmitter* out) override;

  // Buffers one round's messages per input until the document message
  // arrived on both sides, then emits [f1 AND f2] (if both activated)
  // followed by the document message.
  void Drain(BatchEmitter* out);

  std::deque<Message> queues_[2];
  // Document messages currently buffered per side: Drain makes progress iff
  // both are nonzero.  Counters, not queue scans, so a whole batch queued on
  // one side before the other arrives stays O(total messages).
  int64_t buffered_docs_[2] = {0, 0};
};

}  // namespace spex

#endif  // SPEX_SPEX_INTERSECT_TRANSDUCER_H_
