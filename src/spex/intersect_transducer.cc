#include "spex/intersect_transducer.h"

namespace spex {

IntersectTransducer::IntersectTransducer()
    : Transducer("IS", /*input_ports=*/2, /*output_ports=*/1) {}

void IntersectTransducer::Sweep(Documents docs, Controls in0, Controls in1,
                                BatchEmitter* out) {
  WalkPairedRounds(docs, in0, in1, out, [&](Controls left, Controls right) {
    // Per side, at most one (merged) activation plus any determinations.
    bool has_formula[2] = {false, false};
    Formula formulas[2];
    const Controls sides[2] = {left, right};
    for (int side = 0; side < 2; ++side) {
      for (Control& c : sides[side]) {
        Message& m = c.message;
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
  });
}

}  // namespace spex
