#include "spex/input_transducer.h"

namespace spex {

InputTransducer::InputTransducer() : Transducer("IN") {}

void InputTransducer::Sweep(Documents docs, Controls in0, Controls,
                            BatchEmitter* out) {
  auto forward = [&](Message& m) { EmitTo(out, 0, std::move(m)); };
  auto activate = [&](const Message& d) {
    if (!activated_ && d.event_kind == EventKind::kStartDocument) {
      Fire(1);
      activated_ = true;
      EmitTo(out, 0, Message::Activation(Formula::True()));
    }
  };
  if (activated_) [[likely]] {
    WalkControls(docs, in0, out, forward, activate);
  } else {
    WalkRounds(docs, in0, out, forward, activate);
  }
}

}  // namespace spex
