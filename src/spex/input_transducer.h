// Input transducer IN (paper §III.2): the source of a SPEX network.
//
// Sends an activation message carrying the formula `true` on the start
// document message, then forwards every message unchanged.

#ifndef SPEX_SPEX_INPUT_TRANSDUCER_H_
#define SPEX_SPEX_INPUT_TRANSDUCER_H_

#include "spex/transducer.h"

namespace spex {

class InputTransducer : public Transducer {
 public:
  InputTransducer();

 private:
  // Walks the documents until <$> activated the network; from then on
  // only the controls (none, on the engine's tape).
  void Sweep(Documents docs, Controls in0, Controls in1,
             BatchEmitter* out) override;

  bool activated_ = false;
};

}  // namespace spex

#endif  // SPEX_SPEX_INPUT_TRANSDUCER_H_
