// Split SP and Join JO transducers (paper §III.6, Figs. 8 and 9).
//
// SP forwards every message to both of its output tapes.  JO collects the
// messages of its two input tapes and behaves like an AND-gate on document
// messages: a document message is emitted exactly once, after it arrived on
// both inputs; activation and determination messages pass through in arrival
// order.  This synchronizes parallel network branches and removes the
// duplicate document messages a split introduced.  On sparse tapes
// (transducer.h) both are control walks: SP copies its controls to both
// ports, and JO merges its two control lists round by round.

#ifndef SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_
#define SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_

#include "spex/transducer.h"

namespace spex {

class SplitTransducer : public Transducer {
 public:
  SplitTransducer();

 private:
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
};

class JoinTransducer : public Transducer {
 public:
  JoinTransducer();

 private:
  // Fig. 9 over both input tapes of a sweep.  They hold the same rounds, so
  // a join keeps nothing across sweeps (DESIGN.md §11).
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;
  // Fig. 9 over one round: its controls on each port, then the document
  // message (which the sparse tape forwards once).
  void JoinRound(Controls left, Controls right, BatchEmitter* out);
};

}  // namespace spex

#endif  // SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_
