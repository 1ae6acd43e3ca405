#include "spex/split_join_transducers.h"

namespace spex {

SplitTransducer::SplitTransducer()
    : Transducer("SP", /*input_ports=*/1, /*output_ports=*/2) {}

void SplitTransducer::Sweep(Documents docs, Controls in0, Controls,
                            BatchEmitter* out) {
  WalkControls(
      docs, in0, out,
      [&](Message& m) {
        Fire(1);
        EmitTo(out, 0, Message(m));
        EmitTo(out, 1, std::move(m));
      },
      [&](const Message&) { Fire(1); });
}

JoinTransducer::JoinTransducer()
    : Transducer("JO", /*input_ports=*/2, /*output_ports=*/1) {}

void JoinTransducer::Sweep(Documents docs, Controls in0, Controls in1,
                           BatchEmitter* out) {
  WalkPairedRounds(docs, in0, in1, out, [&](Controls left, Controls right) {
    JoinRound(left, right, out);
  });
}

void JoinTransducer::JoinRound(Controls left, Controls right,
                               BatchEmitter* out) {
  size_t l = 0;
  size_t r = 0;
  // (6)-(9): a control message on each side; activations are emitted
  // before determinations, matching Fig. 9's output normalization.
  for (; l < left.size() && r < right.size(); ++l, ++r) {
    Message& lm = left[l].message;
    Message& rm = right[r].message;
    if (lm.is_activation() && rm.is_determination()) {
      Fire(6);
      EmitTo(out, 0, std::move(lm));
      EmitTo(out, 0, std::move(rm));
    } else if (lm.is_determination() && rm.is_activation()) {
      Fire(7);
      EmitTo(out, 0, std::move(rm));
      EmitTo(out, 0, std::move(lm));
    } else {
      Fire(lm.is_activation() ? 8 : 9);
      EmitTo(out, 0, std::move(lm));
      EmitTo(out, 0, std::move(rm));
    }
  }
  if (l == left.size() && r == right.size()) {
    Fire(1);  // (1): the document message arrived on both tapes
    return;
  }
  if (l == left.size()) {
    // Left's document message waits while right's controls drain: (2)/(3),
    // then (10)/(11); right's document message is emitted once (12).
    Fire(right[r].message.is_activation() ? 2 : 3);
    EmitTo(out, 0, std::move(right[r++].message));
    for (; r < right.size(); ++r) {
      Fire(right[r].message.is_activation() ? 10 : 11);
      EmitTo(out, 0, std::move(right[r].message));
    }
    Fire(12);
    return;
  }
  // The mirror case: (4)/(5), (13)/(14), then (15).
  Fire(left[l].message.is_activation() ? 4 : 5);
  EmitTo(out, 0, std::move(left[l++].message));
  for (; l < left.size(); ++l) {
    Fire(left[l].message.is_activation() ? 13 : 14);
    EmitTo(out, 0, std::move(left[l].message));
  }
  Fire(15);
}

}  // namespace spex
