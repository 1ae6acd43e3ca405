#include "spex/input_transducer.h"

namespace spex {

InputTransducer::InputTransducer() : Transducer("IN") {}

void InputTransducer::Process(Message&& message, BatchEmitter* out) {
  if (!activated_ && message.is_document() &&
      message.event_kind == EventKind::kStartDocument) {
    Fire(1);
    activated_ = true;
    EmitTo(out, 0, Message::Activation(Formula::True()));
  }
  EmitTo(out, 0, std::move(message));
}

void InputTransducer::ProcessBatch(Message* messages, size_t count,
                                   BatchEmitter* out) {
  if (activated_) [[likely]] {
    // Steady state: IN forwards everything unchanged.  O(1) per batch — the
    // input range becomes the deferred run (swapped downstream whole).
    stats_.messages_out += static_cast<int64_t>(count);
    out->Forward(0, messages, count);
    return;
  }
  for (size_t i = 0; i < count; ++i) Process(std::move(messages[i]), out);
}

}  // namespace spex
