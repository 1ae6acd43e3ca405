#include "spex/union_transducer.h"

namespace spex {

UnionTransducer::UnionTransducer() : Transducer("UN") {}

void UnionTransducer::Process(Message&& message, BatchEmitter* out) {
  switch (message.kind) {
    case MessageKind::kActivation:
      if (state_ == State::kWaiting) {  // (1): store, await a possible second
        Fire(1);
        stored_ = message.formula;
        state_ = State::kActivate;
      } else {  // (2): both branches matched: emit the disjunction
        Fire(2);
        Formula merged = Formula::Or(stored_, message.formula);
        NoteFormula(merged);
        EmitTo(out, 0, Message::Activation(std::move(merged)));
        stored_ = Formula::True();
        state_ = State::kWaiting;
      }
      return;
    case MessageKind::kDetermination:  // (4)
      Fire(4);
      EmitTo(out, 0, std::move(message));
      return;
    case MessageKind::kDocument:
      if (state_ == State::kActivate) {  // (3): only one branch matched
        Fire(3);
        EmitTo(out, 0, Message::Activation(stored_));
        stored_ = Formula::True();
        state_ = State::kWaiting;
      }
      EmitTo(out, 0, std::move(message));
      return;
  }
}

void UnionTransducer::ProcessBatch(Message* messages, size_t count,
                                   BatchEmitter* out) {
  for (size_t i = 0; i < count; ++i) Process(std::move(messages[i]), out);
}

}  // namespace spex
