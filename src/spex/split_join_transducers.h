// Split SP and Join JO transducers (paper §III.6, Figs. 8 and 9).
//
// SP forwards every message to both of its output tapes.  JO collects the
// messages of its two input tapes and behaves like an AND-gate on document
// messages: a document message is emitted exactly once, after it arrived on
// both inputs; activation and determination messages pass through in arrival
// order.  This synchronizes parallel network branches and removes the
// duplicate document messages a split introduced.

#ifndef SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_
#define SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_

#include <cstddef>
#include <cstdint>

#include "spex/transducer.h"

namespace spex {

class SplitTransducer : public Transducer {
 public:
  SplitTransducer();

 private:
  void ProcessBatch(Message* messages, size_t count,
                    BatchEmitter* out) override;
};

class JoinTransducer : public Transducer {
 public:
  JoinTransducer();

 private:
  // Fig. 9 over both pending input sequences of a sweep.  They hold the
  // same rounds, so the walk ends with both consumed and the state back at
  // kNone: a join keeps nothing across sweeps (DESIGN.md §11).
  void ProcessPair(Message* left, size_t left_count, Message* right,
                   size_t right_count, BatchEmitter* out) override;

  // Fig. 9 state: which input's document message has already been consumed.
  enum class State : uint8_t { kNone, kLeft, kRight };
};

}  // namespace spex

#endif  // SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_
