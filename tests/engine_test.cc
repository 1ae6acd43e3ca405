// End-to-end tests of the SPEX engine on small documents: every rpeq
// construct, qualifier timing (future vs past conditions), result order and
// progressiveness accounting.

#include "spex/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "rpeq/parser.h"
#include "xml/xml_parser.h"

namespace spex {
namespace {

// The running example document of the paper (Fig. 1).
constexpr char kPaperDoc[] = "<a><a><c/></a><b/><c/></a>";

std::vector<StreamEvent> Events(const std::string& xml) {
  std::vector<StreamEvent> events;
  std::string error;
  EXPECT_TRUE(ParseXmlToEvents(xml, &events, &error)) << error;
  return events;
}

std::vector<std::string> Eval(const std::string& query,
                              const std::string& xml) {
  return EvaluateToStrings(*MustParseRpeq(query), Events(xml));
}

TEST(EngineTest, SingleChildStep) {
  // `a` selects root elements labeled a.
  EXPECT_EQ(Eval("a", kPaperDoc),
            (std::vector<std::string>{"<a><a><c></c></a><b></b><c></c></a>"}));
  EXPECT_TRUE(Eval("b", kPaperDoc).empty());
}

TEST(EngineTest, ChildChain) {
  // Example III.1: a.c selects c children of a children of the root.
  EXPECT_EQ(Eval("a.c", kPaperDoc), (std::vector<std::string>{"<c></c>"}));
  EXPECT_EQ(Eval("a.a", kPaperDoc),
            (std::vector<std::string>{"<a><c></c></a>"}));
  EXPECT_EQ(Eval("a.a.c", kPaperDoc), (std::vector<std::string>{"<c></c>"}));
  EXPECT_TRUE(Eval("a.b.c", kPaperDoc).empty());
}

TEST(EngineTest, PositiveClosure) {
  // Example III.2: a+.c+ — c chains below a chains.
  EXPECT_EQ(Eval("a+.c+", kPaperDoc),
            (std::vector<std::string>{"<c></c>", "<c></c>"}));
  EXPECT_EQ(Eval("a+", kPaperDoc),
            (std::vector<std::string>{"<a><a><c></c></a><b></b><c></c></a>",
                                      "<a><c></c></a>"}));
}

TEST(EngineTest, KleeneClosure) {
  // _*.c: all c elements anywhere.
  EXPECT_EQ(Eval("_*.c", kPaperDoc),
            (std::vector<std::string>{"<c></c>", "<c></c>"}));
  // _*.b
  EXPECT_EQ(Eval("_*.b", kPaperDoc), (std::vector<std::string>{"<b></b>"}));
}

TEST(EngineTest, WildcardChild) {
  EXPECT_EQ(Eval("a._", kPaperDoc),
            (std::vector<std::string>{"<a><c></c></a>", "<b></b>", "<c></c>"}));
}

TEST(EngineTest, NestedResults) {
  // Query class 3 of §VI: _*._ selects every element (nested results).
  std::vector<std::string> r = Eval("_*._", kPaperDoc);
  ASSERT_EQ(r.size(), 5u);
  // Document order: outer a, inner a, inner c, b, outer c.
  EXPECT_EQ(r[0], "<a><a><c></c></a><b></b><c></c></a>");
  EXPECT_EQ(r[1], "<a><c></c></a>");
  EXPECT_EQ(r[2], "<c></c>");
  EXPECT_EQ(r[3], "<b></b>");
  EXPECT_EQ(r[4], "<c></c>");
}

TEST(EngineTest, Union) {
  EXPECT_EQ(Eval("a.(b|c)", kPaperDoc),
            (std::vector<std::string>{"<b></b>", "<c></c>"}));
  // Both branches matching the same node must not duplicate it.
  EXPECT_EQ(Eval("a.(b|_)", kPaperDoc),
            (std::vector<std::string>{"<a><c></c></a>", "<b></b>", "<c></c>"}));
}

TEST(EngineTest, Optional) {
  // a.a?.c : c children of a or of a.a
  EXPECT_EQ(Eval("a.a?.c", kPaperDoc),
            (std::vector<std::string>{"<c></c>", "<c></c>"}));
}

TEST(EngineTest, QualifierCompleteExample) {
  // §III.10: _*.a[b].c on the paper document selects the outer a's c child
  // (the outer a has a b child); the inner a has none.
  EXPECT_EQ(Eval("_*.a[b].c", kPaperDoc),
            (std::vector<std::string>{"<c></c>"}));
}

TEST(EngineTest, QualifierFutureCondition) {
  // The qualifying b arrives after the candidate c (future condition).
  EXPECT_EQ(Eval("a[b].c", "<a><c>x</c><b/></a>"),
            (std::vector<std::string>{"<c>x</c>"}));
  EXPECT_TRUE(Eval("a[b].c", "<a><c>x</c><d/></a>").empty());
}

TEST(EngineTest, QualifierPastCondition) {
  // The qualifying b arrives before the candidate c (past condition):
  // the result must stream without buffering.
  CollectingResultSink sink;
  ExprPtr q = MustParseRpeq("a[b].c");
  SpexEngine engine(*q, &sink);
  for (const StreamEvent& e : Events("<a><b/><c>x</c></a>")) {
    engine.OnEvent(e);
  }
  ASSERT_EQ(sink.results().size(), 1u);
  RunStats stats = engine.ComputeStats();
  // The candidate was already decided when it opened: nothing buffered.
  EXPECT_EQ(stats.output.buffered_events_peak, 0);
  EXPECT_GT(stats.output.streamed_events, 0);
}

TEST(EngineTest, QualifierOnClosure) {
  // _*.a[c] : a elements with a c child.
  EXPECT_EQ(Eval("_*.a[c]", kPaperDoc),
            (std::vector<std::string>{"<a><a><c></c></a><b></b><c></c></a>",
                                      "<a><c></c></a>"}));
  // _*.a[b] : only the outer a.
  EXPECT_EQ(Eval("_*.a[b]", kPaperDoc),
            (std::vector<std::string>{"<a><a><c></c></a><b></b><c></c></a>"}));
}

TEST(EngineTest, NestedQualifiers) {
  // country[province[city]] style nesting.
  const char doc[] =
      "<m><country><p><city/></p></country><country><p/></country></m>";
  EXPECT_EQ(Eval("m.country[p[city]]", doc),
            (std::vector<std::string>{"<country><p><city></city></p>"
                                      "</country>"}));
}

TEST(EngineTest, MultipleQualifiersOnOneStep) {
  const char doc[] = "<r><x><a/><b/></x><x><a/></x><x><b/></x></r>";
  EXPECT_EQ(Eval("r.x[a][b]", doc),
            (std::vector<std::string>{"<x><a></a><b></b></x>"}));
}

TEST(EngineTest, QualifierWithClosureBody) {
  // a[_*.d]: a root whose subtree contains a d anywhere.
  EXPECT_TRUE(Eval("a[_*.d]", kPaperDoc).empty());
  EXPECT_EQ(Eval("a[_*.c]", kPaperDoc),
            (std::vector<std::string>{"<a><a><c></c></a><b></b><c></c></a>"}));
}

TEST(EngineTest, TextIsPreservedInFragments) {
  EXPECT_EQ(Eval("a.b", "<a><b>hello <i>world</i></b></a>"),
            (std::vector<std::string>{"<b>hello <i>world</i></b>"}));
}

TEST(EngineTest, EmptyQuerySelectsNothing) {
  // eps alone reaches only the virtual document root, which is not an
  // element and therefore not a result.
  EXPECT_TRUE(Eval("()", kPaperDoc).empty());
}

TEST(EngineTest, EvaluateXmlConvenience) {
  EXPECT_EQ(EvaluateXml("_*.b", kPaperDoc),
            (std::vector<std::string>{"<b></b>"}));
}

TEST(EngineTest, ResultCountMatchesFragments) {
  ExprPtr q = MustParseRpeq("_*._");
  std::vector<StreamEvent> events = Events(kPaperDoc);
  EXPECT_EQ(CountMatches(*q, events), 5);
}

TEST(EngineTest, DeterminationsAreMonotone) {
  // b appears twice: the qualifier variable must be set true once and the
  // later scope-exit false must not undo it.
  EXPECT_EQ(Eval("a[b].c", "<a><b/><b/><c/></a>"),
            (std::vector<std::string>{"<c></c>"}));
}


TEST(EngineTest, DeterminationOrderPolicyGivesSameFragmentSet) {
  // Under OutputOrder::kDetermination, nested fragments interleave and are
  // delivered in Begin (determination) order; the *set* of fragments must
  // match the strict document-start policy.
  EngineOptions interleaved;
  interleaved.output_order = OutputOrder::kDetermination;
  std::vector<StreamEvent> events = Events(kPaperDoc);
  for (const char* q : {"_*._", "_*.a[b].c", "a+.c+", "_*.a[b]", "a.(b|c)"}) {
    ExprPtr query = MustParseRpeq(q);
    std::vector<std::string> a = EvaluateToStrings(*query, events);
    std::vector<std::string> b =
        EvaluateToStrings(*query, events, interleaved);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << q;
  }
}

TEST(EngineTest, DeterminationOrderNeverBuffersDecidedCandidates) {
  // Class 3 on a nested document: under kDetermination nothing is ever
  // buffered, under kDocumentStart the root fragment blocks everything.
  EngineOptions interleaved;
  interleaved.output_order = OutputOrder::kDetermination;
  ExprPtr q = MustParseRpeq("_*._");
  std::vector<StreamEvent> events = Events(kPaperDoc);
  {
    CountingResultSink sink;
    SpexEngine engine(*q, &sink, interleaved);
    for (const StreamEvent& e : events) engine.OnEvent(e);
    EXPECT_EQ(engine.ComputeStats().output.buffered_events_peak, 0);
    EXPECT_EQ(sink.results(), 5);
  }
  {
    CountingResultSink sink;
    SpexEngine engine(*q, &sink);
    for (const StreamEvent& e : events) engine.OnEvent(e);
    EXPECT_GT(engine.ComputeStats().output.buffered_events_peak, 0);
    EXPECT_EQ(sink.results(), 5);
  }
}

TEST(EngineTest, DeterminationOrderInterleavedBracketsAreConsistent) {
  // An inner candidate determined before an outer one: brackets close by
  // id, not LIFO.  Query: _*.a[x]._[y] on a document where y arrives before
  // x.
  EngineOptions interleaved;
  interleaved.output_order = OutputOrder::kDetermination;
  const char doc[] = "<a><i><y/><k/></i><x/></a>";
  ExprPtr q = MustParseRpeq("_*.a[x]._[y]");
  std::vector<StreamEvent> events = Events(doc);
  std::vector<std::string> strict = EvaluateToStrings(*q, events);
  std::vector<std::string> inter = EvaluateToStrings(*q, events, interleaved);
  std::sort(strict.begin(), strict.end());
  std::sort(inter.begin(), inter.end());
  EXPECT_EQ(strict, inter);
  ASSERT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0], "<i><y></y><k></k></i>");
}

TEST(EngineTest, RegistryBuildsCollectorsOnDemand) {
  // Counters are always on: a run registers spex_events_total (a pull
  // counter) and the decision-delay histogram when it starts, and nothing
  // else until someone asks for the registry — the pull collectors over
  // state the engine maintains anyway are built by the first metrics()
  // call, and no trace recorder is attached unless the caller attaches one.
  ExprPtr q = MustParseRpeq("_*.a[c].c");
  CountingResultSink sink;
  SpexEngine engine(*q, &sink);
  for (const StreamEvent& e : Events(kPaperDoc)) engine.OnEvent(e);
  EXPECT_EQ(engine.context().metrics.size(), 2u);
  EXPECT_EQ(engine.context().observer.trace, nullptr);
  // ComputeStats reads the same state directly, registry or not.
  RunStats stats = engine.ComputeStats();
  EXPECT_GT(stats.total_messages, 0);
  EXPECT_EQ(stats.events_processed,
            static_cast<int64_t>(Events(kPaperDoc).size()));
  obs::MetricsSnapshot snap = engine.metrics().Collect();
  EXPECT_GT(engine.context().metrics.size(), 2u);
  EXPECT_EQ(snap.SumAll("spex_transducer_messages_in"), stats.total_messages);
  EXPECT_EQ(snap.Value("spex_events_total"), stats.events_processed);
  EXPECT_EQ(snap.Value("spex_engine_events"), stats.events_processed);
  const obs::MetricSample* delay =
      snap.Find("spex_output_decision_delay_events");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count, stats.output.candidates_created);
}

}  // namespace
}  // namespace spex
