// Ablation E7 — §V formula-size analysis: with qualifiers on n wildcard
// closure steps, an expanded (DNF) formula can reach size O(d^n), while the
// shared-DAG ("factored", Remark V.1) representation used by this library
// stays polynomial.  Sweeps n (depth 48) and d (n = 2) on nested documents
// and prints, per row, the peak formula size in DAG nodes, the peak
// condition stack (n sweep) and the run time.  The DNF size is not
// measured: d^n is the analytic bound it is compared with.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rpeq/parser.h"
#include "xml/generators.h"

namespace spex {
namespace {

// _+[q1]._+[q2]...: each step is a wildcard closure with a qualifier —
// the worst case of §V.
std::string WorstCaseQuery(int n) {
  std::string q = "_+[x0]";
  for (int i = 1; i < n; ++i) q += "._+[x" + std::to_string(i % 3) + "]";
  return q;
}

// A document of nested <a> elements with occasional qualifier witnesses.
std::vector<StreamEvent> NestedDoc(int depth) {
  return GenerateToVector([&](EventSink* s) {
    s->OnEvent(StreamEvent::StartDocument());
    for (int i = 0; i < depth; ++i) {
      s->OnEvent(StreamEvent::StartElement("a"));
      if (i % 3 == 0) {
        s->OnEvent(StreamEvent::StartElement("x0"));
        s->OnEvent(StreamEvent::EndElement("x0"));
      }
    }
    for (int i = depth - 1; i >= 0; --i) {
      s->OnEvent(StreamEvent::EndElement("a"));
    }
    s->OnEvent(StreamEvent::EndDocument());
  });
}

void SweepQualifierCount() {
  std::printf("\nformula size vs number of closure+qualifier steps n "
              "(depth fixed at 48)\n");
  std::printf("%4s %16s %18s %12s\n", "n", "DAG nodes (peak)",
              "cond stack (peak)", "time[ms]");
  bench::PrintRule(56);
  std::vector<StreamEvent> doc = NestedDoc(48);
  for (int n = 1; n <= 4; ++n) {
    ExprPtr q = MustParseRpeq(WorstCaseQuery(n));
    bench::SpexRun run = bench::RunSpex(*q, doc);
    std::printf("%4d %16lld %18lld %12.2f\n", n,
                static_cast<long long>(run.stats.max_formula_nodes),
                static_cast<long long>(run.stats.max_condition_stack),
                run.seconds * 1e3);
  }
}

void SweepDepth() {
  std::printf("\nformula size vs document depth d (n = 2 qualifier "
              "closure steps)\n");
  std::printf("%6s %16s %12s\n", "d", "DAG nodes (peak)", "time[ms]");
  bench::PrintRule(40);
  ExprPtr q = MustParseRpeq(WorstCaseQuery(2));
  for (int d = 16; d <= 256; d *= 2) {
    std::vector<StreamEvent> doc = NestedDoc(d);
    bench::SpexRun run = bench::RunSpex(*q, doc);
    std::printf("%6d %16lld %12.2f\n", d,
                static_cast<long long>(run.stats.max_formula_nodes),
                run.seconds * 1e3);
  }
}

}  // namespace
}  // namespace spex

int main() {
  using namespace spex;
  std::printf("== Ablation E7: formula growth on wildcard closures with "
              "qualifiers (§V) ==\n");
  std::printf("Expected shape: DAG nodes grow polynomially with d and n "
              "(the factored\nrepresentation of Remark V.1), where a naive "
              "DNF would grow like d^n.\n");
  SweepQualifierCount();
  SweepDepth();
  return 0;
}
