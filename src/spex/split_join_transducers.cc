#include "spex/split_join_transducers.h"

#include <cassert>

namespace spex {

SplitTransducer::SplitTransducer() : Transducer("SP") {}

void SplitTransducer::ProcessBatch(int port, Message* messages, size_t count,
                                   BatchEmitter* out) {
  (void)port;
  for (size_t i = 0; i < count; ++i) {
    Fire(1);
    // The copy goes to port 0 so the port-1 emission keeps the message's
    // original address, letting BatchEmitter elide the port-1 forward.
    EmitTo(out, 0, Message(messages[i]));
    EmitTo(out, 1, std::move(messages[i]));
  }
}

JoinTransducer::JoinTransducer() : Transducer("JO") {}

void JoinTransducer::ProcessBatch(int port, Message* messages, size_t count,
                                  BatchEmitter* out) {
  assert(port == 0 || port == 1);
  for (size_t i = 0; i < count; ++i) {
    queues_[port].push_back(std::move(messages[i]));
  }
  Drain(out);
}

void JoinTransducer::Drain(BatchEmitter* out) {
  for (;;) {
    MessageQueue& left = queues_[0];
    MessageQueue& right = queues_[1];
    switch (state_) {
      case State::kNone: {
        if (left.empty() || right.empty()) return;
        Message& l = left.front();
        Message& r = right.front();
        const bool l_doc = l.is_document();
        const bool r_doc = r.is_document();
        if (l_doc && r_doc) {  // (1): the same message arrived on both tapes
          Fire(1);
          assert(l.SameDocumentAs(r));
          EmitTo(out, 0, std::move(l));
          left.pop_front();
          right.pop_front();
        } else if (l_doc) {  // (2)/(3): drain right's control messages first
          Fire(r.is_activation() ? 2 : 3);
          EmitTo(out, 0, std::move(r));
          right.pop_front();
          state_ = State::kLeft;
        } else if (r_doc) {  // (4)/(5)
          Fire(l.is_activation() ? 4 : 5);
          EmitTo(out, 0, std::move(l));
          left.pop_front();
          state_ = State::kRight;
        } else {
          // (6)-(9): two control messages; activations are emitted before
          // determinations, matching Fig. 9's output normalization.
          if (l.is_activation() && r.is_determination()) {
            Fire(6);
            EmitTo(out, 0, std::move(l));
            EmitTo(out, 0, std::move(r));
          } else if (l.is_determination() && r.is_activation()) {
            Fire(7);
            EmitTo(out, 0, std::move(r));
            EmitTo(out, 0, std::move(l));
          } else if (l.is_activation()) {
            Fire(8);
            EmitTo(out, 0, std::move(l));
            EmitTo(out, 0, std::move(r));
          } else {
            Fire(9);
            EmitTo(out, 0, std::move(l));
            EmitTo(out, 0, std::move(r));
          }
          left.pop_front();
          right.pop_front();
        }
        break;
      }
      case State::kLeft: {
        // Left's document message is pending at its head; drain right.
        if (right.empty()) return;
        Message& r = right.front();
        if (r.is_document()) {  // (12): emit the document message once
          Fire(12);
          assert(!left.empty() && left.front().is_document());
          assert(left.front().SameDocumentAs(r));
          EmitTo(out, 0, std::move(r));
          left.pop_front();
          right.pop_front();
          state_ = State::kNone;
        } else {  // (10)/(11)
          Fire(r.is_activation() ? 10 : 11);
          EmitTo(out, 0, std::move(r));
          right.pop_front();
        }
        break;
      }
      case State::kRight: {
        if (left.empty()) return;
        Message& l = left.front();
        if (l.is_document()) {  // (15)
          Fire(15);
          assert(!right.empty() && right.front().is_document());
          assert(right.front().SameDocumentAs(l));
          EmitTo(out, 0, std::move(l));
          left.pop_front();
          right.pop_front();
          state_ = State::kNone;
        } else {  // (13)/(14)
          Fire(l.is_activation() ? 13 : 14);
          EmitTo(out, 0, std::move(l));
          left.pop_front();
        }
        break;
      }
    }
  }
}

}  // namespace spex
