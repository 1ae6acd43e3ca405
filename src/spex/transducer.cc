#include "spex/transducer.h"

#include <cassert>

namespace spex {

void Transducer::OnBatch(Message* messages, size_t count, BatchEmitter* out) {
  NoteInput(messages, count);
  if (trace_ == nullptr) [[likely]] {
    ProcessBatch(messages, count, out);
    return;
  }
  // Traced: one message at a time, closing a trace group after every
  // document message (the presentation of Figs. 4, 5 and 13).
  for (size_t i = 0; i < count; ++i) {
    const bool document = messages[i].is_document();
    ProcessBatch(&messages[i], 1, out);
    if (document) trace_->EndGroup();
  }
}

void Transducer::OnPair(Message* left, size_t left_count, Message* right,
                        size_t right_count, BatchEmitter* out) {
  NoteInput(left, left_count);
  NoteInput(right, right_count);
  ProcessPair(left, left_count, right, right_count, out);
}

void Transducer::NoteInput(const Message* messages, size_t count) {
  stats_.messages_in += static_cast<int64_t>(count);
  for (size_t i = 0; i < count; ++i) {
    // Activations are rare on hot streams.
    if (messages[i].is_activation()) NoteFormula(messages[i].formula);
  }
}

void Transducer::ProcessBatch(Message*, size_t, BatchEmitter*) {
  assert(false && "two-input transducer: the sweep calls OnPair");
}

void Transducer::ProcessPair(Message*, size_t, Message*, size_t,
                             BatchEmitter*) {
  assert(false && "one-input transducer: the sweep calls OnBatch");
}

std::string TransducerTrace::ToString() const {
  std::string out;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += ' ';
    if (groups[g].empty()) {
      out += '-';
      continue;
    }
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(groups[g][i]);
    }
  }
  return out;
}

const char* DepthSymbolName(DepthSymbol s) {
  switch (s) {
    case DepthSymbol::kLevel:
      return "l";
    case DepthSymbol::kMatch:
      return "m";
    case DepthSymbol::kScopeStart:
      return "s";
    case DepthSymbol::kNestedScope:
      return "ns";
    case DepthSymbol::kScopeEnd:
      return "e";
  }
  return "?";
}

}  // namespace spex
