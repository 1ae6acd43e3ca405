// Input transducer IN (paper §III.2): the source of a SPEX network.
//
// Sends an activation message carrying the formula `true` on the start
// document message, then forwards every document message unchanged.

#ifndef SPEX_SPEX_INPUT_TRANSDUCER_H_
#define SPEX_SPEX_INPUT_TRANSDUCER_H_

#include "spex/transducer.h"

namespace spex {

class InputTransducer : public Transducer {
 public:
  InputTransducer();

 private:
  void ProcessBatch(Message* messages, size_t count,
                    BatchEmitter* out) override;
  void Process(Message&& message, BatchEmitter* out);

  bool activated_ = false;
};

}  // namespace spex

#endif  // SPEX_SPEX_INPUT_TRANSDUCER_H_
