#include "spex/intersect_transducer.h"

#include <cassert>

namespace spex {

IntersectTransducer::IntersectTransducer() : Transducer("IS") {}

void IntersectTransducer::ProcessPair(Message* left, size_t left_count,
                                      Message* right, size_t right_count,
                                      BatchEmitter* out) {
  Message* const sides[2] = {left, right};
  const size_t counts[2] = {left_count, right_count};
  size_t next[2] = {0, 0};
  while (next[0] < counts[0]) {
    // Collect the round: per side, at most one (merged) activation plus any
    // determinations, then the document message.
    bool has_formula[2] = {false, false};
    Formula formulas[2];
    Message* document = nullptr;  // side 0's copy
    for (int side = 0; side < 2; ++side) {
      for (;;) {
        assert(next[side] < counts[side]);
        Message& m = sides[side][next[side]++];
        if (m.is_document()) {
          if (side == 0) {
            document = &m;
          } else {
            assert(document->SameDocumentAs(m));
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
    EmitTo(out, 0, std::move(*document));
    EndRound();
  }
  assert(next[1] == counts[1]);
}

}  // namespace spex
