#include "spex/intersect_transducer.h"

#include <cassert>

namespace spex {

IntersectTransducer::IntersectTransducer() : Transducer("IS") {}

void IntersectTransducer::ProcessBatch(int port, Message* messages,
                                       size_t count, BatchEmitter* out) {
  assert(port == 0 || port == 1);
  for (size_t i = 0; i < count; ++i) {
    if (messages[i].is_document()) ++buffered_docs_[port];
    queues_[port].push_back(std::move(messages[i]));
  }
  Drain(out);
}

void IntersectTransducer::Drain(BatchEmitter* out) {
  // A round completes when the document message is present on both inputs
  // (splits upstream guarantee it eventually is).
  for (;;) {
    if (buffered_docs_[0] == 0 || buffered_docs_[1] == 0) return;

    // Collect the round: per side, at most one (merged) activation plus any
    // determinations, then the document message.
    bool has_formula[2] = {false, false};
    Formula formulas[2];
    Message document;  // overwritten by side 0's document message below
    for (int side = 0; side < 2; ++side) {
      for (;;) {
        Message m = std::move(queues_[side].front());
        queues_[side].pop_front();
        if (m.is_document()) {
          --buffered_docs_[side];
          if (side == 0) {
            document = std::move(m);
          } else {
            assert(document.SameDocumentAs(m));
          }
          break;
        }
        if (m.is_activation()) {
          formulas[side] = has_formula[side]
                               ? Formula::Or(formulas[side], m.formula)
                               : m.formula;
          has_formula[side] = true;
        } else {  // determination: forward once per side (idempotent)
          Fire(2);
          EmitTo(out, 0, std::move(m));
        }
      }
    }
    if (has_formula[0] && has_formula[1]) {  // (1): both paths reached it
      Fire(1);
      Formula joined = Formula::And(formulas[0], formulas[1]);
      NoteFormula(joined);
      EmitTo(out, 0, Message::Activation(std::move(joined)));
    } else {
      Fire(3);
    }
    EmitTo(out, 0, std::move(document));
  }
}

}  // namespace spex
