#include "spex/transducer.h"

namespace spex {

void Transducer::OnBatch(int port, Message* messages, size_t count,
                         BatchEmitter* out) {
  stats_.messages_in += static_cast<int64_t>(count);
  for (size_t i = 0; i < count; ++i) {
    // Activations are rare on hot streams.
    if (messages[i].is_activation()) NoteFormula(messages[i].formula);
  }
  if (trace_ == nullptr) [[likely]] {
    ProcessBatch(port, messages, count, out);
    return;
  }
  // Traced: one message at a time, closing a trace group after every
  // document message (the presentation of Figs. 4, 5 and 13).
  for (size_t i = 0; i < count; ++i) {
    const bool document = messages[i].is_document();
    ProcessBatch(port, &messages[i], 1, out);
    if (document) trace_->EndGroup();
  }
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
