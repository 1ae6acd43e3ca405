// Tests of the rpeq -> SPEX network translation (Fig. 11 / Lemma V.1):
// network shapes per construct and linearity of the degree.

#include "spex/compiler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "rpeq/parser.h"
#include "spex/engine.h"

namespace spex {
namespace {

int Degree(const std::string& query) {
  ExprPtr e = MustParseRpeq(query);
  CountingResultSink sink;
  SpexEngine engine(*e, &sink);
  return engine.network().node_count();
}

std::vector<std::string> NodeNames(const std::string& query) {
  ExprPtr e = MustParseRpeq(query);
  CountingResultSink sink;
  SpexEngine engine(*e, &sink);
  std::vector<std::string> names;
  for (int i = 0; i < engine.network().node_count(); ++i) {
    names.push_back(engine.network().node(i)->name());
  }
  return names;
}

TEST(CompilerTest, ChildStep) {
  // C[label] = CH(label):  IN, CH, OU.
  EXPECT_EQ(NodeNames("a"),
            (std::vector<std::string>{"IN", "CH(a)", "OU"}));
}

TEST(CompilerTest, PositiveClosure) {
  EXPECT_EQ(NodeNames("a+"),
            (std::vector<std::string>{"IN", "CL(a)", "OU"}));
}

TEST(CompilerTest, KleeneClosureUsesSplitJoin) {
  // C[label*] = SP ; CL ; JO (Fig. 11).
  EXPECT_EQ(NodeNames("a*"),
            (std::vector<std::string>{"IN", "SP", "CL(a)", "JO", "OU"}));
}

TEST(CompilerTest, OptionalUsesSplitJoin) {
  EXPECT_EQ(NodeNames("a?"),
            (std::vector<std::string>{"IN", "SP", "CH(a)", "JO", "OU"}));
}

TEST(CompilerTest, UnionUsesSplitJoinUnion) {
  EXPECT_EQ(NodeNames("a|b"),
            (std::vector<std::string>{"IN", "SP", "CH(a)", "CH(b)", "JO",
                                      "UN", "OU"}));
}

TEST(CompilerTest, QualifierPipeline) {
  // C[[q]] = VC ; SP ; C[q] ; VF(q+) ; VD ; JO (Fig. 11).
  EXPECT_EQ(NodeNames("a[b]"),
            (std::vector<std::string>{"IN", "CH(a)", "VC(q0)", "SP", "CH(b)",
                                      "VF(q0+)", "VD(q0)", "JO", "OU"}));
}

TEST(CompilerTest, ConcatComposes) {
  EXPECT_EQ(NodeNames("a.b.c"),
            (std::vector<std::string>{"IN", "CH(a)", "CH(b)", "CH(c)", "OU"}));
}

TEST(CompilerTest, QualifierIdsAssignedInCompilationOrder) {
  std::vector<std::string> names = NodeNames("a[b].c[d[e]]");
  // q0 = [b], q1 = [d[e]], q2 = [e] (inner compiled after its parent's VC).
  EXPECT_NE(std::find(names.begin(), names.end(), "VC(q0)"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "VC(q1)"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "VC(q2)"), names.end());
  // The inner qualifier's creator appears after the outer one's.
  auto pos = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  EXPECT_LT(pos("VC(q1)"), pos("VC(q2)"));
}

TEST(CompilerTest, DegreeIsLinearInQuerySize) {
  // Lemma V.1: each construct adds a constant number of transducers.
  int prev = Degree("a");
  for (int n = 2; n <= 64; n *= 2) {
    std::string q = "a";
    for (int i = 1; i < n; ++i) q += ".a";
    int deg = Degree(q);
    EXPECT_EQ(deg, n + 2);  // n CH + IN + OU
    EXPECT_GT(deg, prev);
    prev = deg;
  }
  // Qualifiers add exactly 6 transducers each.
  EXPECT_EQ(Degree("a[b]") - Degree("a.b"), 5);  // VC SP VF VD JO vs one CH
}

TEST(CompilerTest, EveryTapeHasProducerAndConsumerExceptSink) {
  ExprPtr e = MustParseRpeq("_*.(a|b)[c?].d+");
  CountingResultSink sink;
  SpexEngine engine(*e, &sink);
  // Smoke: the network must be runnable end to end without dangling tapes
  // (the sweep would assert otherwise).
  engine.OnEvent(StreamEvent::StartDocument());
  engine.OnEvent(StreamEvent::StartElement("a"));
  engine.OnEvent(StreamEvent::EndElement("a"));
  engine.OnEvent(StreamEvent::EndDocument());
  SUCCEED();
}

TEST(CompilerTest, DescribeListsAllNodes) {
  ExprPtr e = MustParseRpeq("a[b]");
  CountingResultSink sink;
  SpexEngine engine(*e, &sink);
  std::string desc = engine.network().Describe();
  EXPECT_NE(desc.find("VC(q0)"), std::string::npos);
  EXPECT_NE(desc.find("OU"), std::string::npos);
}

// The sweep cuts are the end tags at which a VC reads its variable: those
// of the elements the qualifier's base selects, every element for a
// wildcard step, </$> for a root scope (the eps branch of `_*`) and for a
// body holding `>>` (invalidation deferred to the end of the document).
TEST(CompilerTest, SweepCutsAreQualifierScopeExits) {
  struct Case {
    const char* query;
    bool any_element;
    bool document;
    std::vector<std::string> labels;
  };
  const Case cases[] = {
      {"_*.a.c", false, false, {}},
      {"_*.a.<<b", false, false, {}},
      {"_*.a[b].c", false, false, {"a"}},
      {"_*.a[b].c[d]", false, false, {"a", "c"}},
      {"(_*.a | _*.c.b)[d]", false, false, {"a", "b"}},
      {"_*.a?[b]", true, true, {}},
      {"_*._[b]", true, false, {}},
      {"_*[b]", true, true, {}},
      {"_*.a[>>b]", false, true, {}},
      {"_*.a[b[c]]", false, false, {"a", "b"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    ExprPtr e = MustParseRpeq(c.query);
    CountingResultSink sink;
    SpexEngine engine(*e, &sink);
    const LabelSet& cuts = engine.network().sweep_cuts();
    EXPECT_EQ(cuts.any_element, c.any_element);
    EXPECT_EQ(cuts.document, c.document);
    EXPECT_EQ(cuts.labels, c.labels);
  }
}

}  // namespace
}  // namespace spex
