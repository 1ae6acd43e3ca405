#include "spex/split_join_transducers.h"

#include <cassert>

namespace spex {

SplitTransducer::SplitTransducer() : Transducer("SP") {}

void SplitTransducer::ProcessBatch(Message* messages, size_t count,
                                   BatchEmitter* out) {
  for (size_t i = 0; i < count; ++i) {
    Fire(1);
    // The copy goes to port 0 so the port-1 emission keeps the message's
    // original address, letting BatchEmitter elide the port-1 forward.
    EmitTo(out, 0, Message(messages[i]));
    EmitTo(out, 1, std::move(messages[i]));
  }
}

JoinTransducer::JoinTransducer() : Transducer("JO") {}

void JoinTransducer::ProcessPair(Message* left, size_t left_count,
                                 Message* right, size_t right_count,
                                 BatchEmitter* out) {
  // A round's document message is emitted once, as its left copy: the two
  // copies are the same message, and the left input buffer is the one the
  // emitter forwards without moving (pass-through elision).
  size_t l = 0;
  size_t r = 0;
  State state = State::kNone;
  while (l < left_count || r < right_count) {
    switch (state) {
      case State::kNone: {
        assert(l < left_count && r < right_count);
        Message& lm = left[l];
        Message& rm = right[r];
        const bool l_doc = lm.is_document();
        const bool r_doc = rm.is_document();
        if (l_doc && r_doc) {  // (1): the same message arrived on both tapes
          Fire(1);
          assert(lm.SameDocumentAs(rm));
          EmitTo(out, 0, std::move(lm));
          ++l;
          ++r;
          EndRound();
        } else if (l_doc) {  // (2)/(3): drain right's control messages first
          Fire(rm.is_activation() ? 2 : 3);
          EmitTo(out, 0, std::move(rm));
          ++r;
          state = State::kLeft;
        } else if (r_doc) {  // (4)/(5)
          Fire(lm.is_activation() ? 4 : 5);
          EmitTo(out, 0, std::move(lm));
          ++l;
          state = State::kRight;
        } else {
          // (6)-(9): two control messages; activations are emitted before
          // determinations, matching Fig. 9's output normalization.
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
          ++l;
          ++r;
        }
        break;
      }
      case State::kLeft: {
        // Left's document message is pending at its head; drain right.
        assert(r < right_count);
        Message& rm = right[r++];
        if (rm.is_document()) {  // (12): emit the document message once
          Fire(12);
          assert(left[l].SameDocumentAs(rm));
          EmitTo(out, 0, std::move(left[l++]));
          state = State::kNone;
          EndRound();
        } else {  // (10)/(11)
          Fire(rm.is_activation() ? 10 : 11);
          EmitTo(out, 0, std::move(rm));
        }
        break;
      }
      case State::kRight: {
        assert(l < left_count);
        Message& lm = left[l++];
        if (lm.is_document()) {  // (15)
          Fire(15);
          assert(right[r].SameDocumentAs(lm));
          ++r;
          EmitTo(out, 0, std::move(lm));
          state = State::kNone;
          EndRound();
        } else {  // (13)/(14)
          Fire(lm.is_activation() ? 13 : 14);
          EmitTo(out, 0, std::move(lm));
        }
        break;
      }
    }
  }
  assert(state == State::kNone);
}

}  // namespace spex
