#include "spex/transducer.h"

namespace spex {

void Transducer::OnSweep(Documents docs, Controls in0, Controls in1,
                         BatchEmitter* out) {
  const auto documents = static_cast<int64_t>(docs.size());
  stats_.messages_in += documents * input_ports_ +
                        static_cast<int64_t>(in0.size() + in1.size());
  stats_.messages_out += documents * output_ports_;
  for (Controls in : {in0, in1}) {
    for (const Control& c : in) {
      if (c.message.is_activation()) NoteFormula(c.message.formula);
    }
  }
  Sweep(docs, in0, in1, out);
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
