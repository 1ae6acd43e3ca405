// Tests of the following (>>) / preceding (<<) axis extensions — paper §I:
// "The prototype supports also other XPath navigational capabilities, i.e.
// following and preceding."

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "rpeq/parser.h"
#include "rpeq/xpath.h"
#include "spex/compiler.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/dom.h"
#include "xml/generators.h"

namespace spex {
namespace {

std::vector<std::string> Eval(const std::string& query,
                              const std::string& xml) {
  return EvaluateToStrings(*MustParseRpeq(query), MustParseEvents(xml));
}

std::vector<std::string> Oracle(const std::string& query,
                                const std::string& xml) {
  return DomEvaluateToStrings(*MustParseRpeq(query), xml);
}

TEST(OrderAxesTest, ParserRoundTrip) {
  EXPECT_EQ(MustParseRpeq("a.>>b")->ToString(), "a.>>b");
  EXPECT_EQ(MustParseRpeq("a.<<_")->ToString(), "a.<<_");
  EXPECT_EQ(MustParseRpeq(">>b[c]")->ToString(), ">>b[c]");
  EXPECT_FALSE(ParseRpeq("a.>>").ok());
  EXPECT_FALSE(ParseRpeq("<<+").ok());
}

TEST(OrderAxesTest, FollowingBasics) {
  // x's following b's: only those starting after </x>.
  const char doc[] = "<r><b/><x><b/></x><b/><c><b/></c></r>";
  EXPECT_EQ(Eval("r.x.>>b", doc),
            (std::vector<std::string>{"<b></b>", "<b></b>"}));
  EXPECT_EQ(Eval("r.x.>>b", doc), Oracle("r.x.>>b", doc));
}

TEST(OrderAxesTest, FollowingExcludesDescendantsAndAncestors) {
  const char doc[] = "<a><x><a/></x><a><a/></a></a>";
  // following(x) = the two later a's (outer ancestor <a> and the one inside
  // x are excluded).
  EXPECT_EQ(Eval("a.x.>>a", doc),
            (std::vector<std::string>{"<a><a></a></a>", "<a></a>"}));
  EXPECT_EQ(Eval("a.x.>>a", doc), Oracle("a.x.>>a", doc));
}

TEST(OrderAxesTest, FollowingFromMultipleContexts) {
  const char doc[] = "<r><x/><b/><x/><b/><b/></r>";
  // Union over contexts: everything after the FIRST x.
  EXPECT_EQ(Eval("r.x.>>b", doc).size(), 3u);
  EXPECT_EQ(Eval("r.x.>>b", doc), Oracle("r.x.>>b", doc));
}

TEST(OrderAxesTest, FollowingOfRootIsEmpty) {
  EXPECT_TRUE(Eval(">>a", "<a><a/></a>").empty());
  EXPECT_TRUE(Eval("a.>>_", "<a><b/></a>").empty());
}

TEST(OrderAxesTest, PrecedingBasics) {
  const char doc[] = "<r><b/><c><b/></c><x/><b/></r>";
  // b's that closed before <x> opened: the first b and the nested one.
  EXPECT_EQ(Eval("r.x.<<b", doc).size(), 2u);
  EXPECT_EQ(Eval("r.x.<<b", doc), Oracle("r.x.<<b", doc));
}

TEST(OrderAxesTest, PrecedingExcludesAncestors) {
  const char doc[] = "<a><b><x/></b></a>";
  // a and b are ancestors of x: preceding(x) is empty.
  EXPECT_TRUE(Eval("_*.x.<<_", doc).empty());
}

TEST(OrderAxesTest, PrecedingIsAFutureCondition) {
  // The preceding matches are buffered until the context arrives.
  const char doc[] = "<r><b>1</b><x/></r>";
  CollectingResultSink sink;
  ExprPtr q = MustParseRpeq("r.x.<<b");
  SpexEngine engine(*q, &sink);
  std::vector<StreamEvent> events = MustParseEvents(doc);
  // Feed everything up to (but excluding) <x>.
  for (size_t i = 0; i + 4 < events.size(); ++i) engine.OnEvent(events[i]);
  EXPECT_TRUE(sink.results().empty());  // speculation still pending
  for (size_t i = events.size() - 4; i < events.size(); ++i) {
    engine.OnEvent(events[i]);
  }
  ASSERT_EQ(sink.results().size(), 1u);
  EXPECT_EQ(sink.results()[0].size(), 3u);  // <b> "1" </b>
}

TEST(OrderAxesTest, PrecedingWithNoContextYieldsNothing) {
  EXPECT_TRUE(Eval("r.x.<<b", "<r><b/><b/></r>").empty());
}

TEST(OrderAxesTest, CompositionWithChildSteps) {
  // Children of following elements.
  const char doc[] = "<r><x/><k><v>1</v></k><k><v>2</v></k></r>";
  EXPECT_EQ(Eval("r.x.>>k.v", doc),
            (std::vector<std::string>{"<v>1</v>", "<v>2</v>"}));
  EXPECT_EQ(Eval("r.x.>>k.v", doc), Oracle("r.x.>>k.v", doc));
}

TEST(OrderAxesTest, OrderAxesInsideQualifiers) {
  // x elements that have some preceding b: a "past condition" qualifier.
  const char doc[] = "<r><x>first</x><b/><x>second</x></r>";
  EXPECT_EQ(Eval("r.x[<<b]", doc),
            (std::vector<std::string>{"<x>second</x>"}));
  EXPECT_EQ(Eval("r.x[<<b]", doc), Oracle("r.x[<<b]", doc));
  // x elements with some following b.
  EXPECT_EQ(Eval("r.x[>>b]", doc),
            (std::vector<std::string>{"<x>first</x>"}));
  EXPECT_EQ(Eval("r.x[>>b]", doc), Oracle("r.x[>>b]", doc));
}

TEST(OrderAxesTest, ConditionalContexts) {
  // Contexts that are themselves conditional: following of x[q].
  const char doc[] = "<r><x><q/></x><b/><x/><c/></r>";
  EXPECT_EQ(Eval("r.x[q].>>_", doc).size(), 3u);  // b, x, c after first x
  EXPECT_EQ(Eval("r.x[q].>>_", doc), Oracle("r.x[q].>>_", doc));
  const char doc2[] = "<r><x/><b/><x><q/></x><c/></r>";
  EXPECT_EQ(Eval("r.x[q].>>_", doc2),
            (std::vector<std::string>{"<c></c>"}));
}

TEST(OrderAxesTest, XPathAxesTranslate) {
  EXPECT_EQ(MustParseXPath("//x/following::b")->ToString(), "_*.x.>>b");
  EXPECT_EQ(MustParseXPath("//x/preceding::*")->ToString(), "_*.x.<<_");
  EXPECT_EQ(MustParseXPath("/r/x/following::node()")->ToString(), "r.x.>>_");
}


TEST(OrderAxesTest, ValidateQueryRestrictions) {
  std::string error;
  // Fine: << in main paths, anywhere; << as a body tail; >> anywhere.
  EXPECT_TRUE(ValidateQuery(*MustParseRpeq("r.<<b.c"), &error)) << error;
  EXPECT_TRUE(ValidateQuery(*MustParseRpeq("r.x[<<b]"), &error)) << error;
  EXPECT_TRUE(ValidateQuery(*MustParseRpeq("r.x[a.<<b]"), &error)) << error;
  EXPECT_TRUE(ValidateQuery(*MustParseRpeq("r.x[>>b.c]"), &error)) << error;
  EXPECT_TRUE(ValidateQuery(*MustParseRpeq("r.x[a|<<b]"), &error)) << error;
  // Rejected: << in non-tail body position or qualified inside a body.
  EXPECT_FALSE(ValidateQuery(*MustParseRpeq("r.x[<<b.c]"), &error));
  EXPECT_NE(error.find("last step"), std::string::npos);
  EXPECT_FALSE(ValidateQuery(*MustParseRpeq("r.x[<<b[q]]"), &error));
  // Rejected: << under a node-identity join inside a body (evidence mode
  // certifies existence, not identity — found by differential stress).
  EXPECT_FALSE(ValidateQuery(*MustParseRpeq("r.x[<<b & b]"), &error));
  EXPECT_NE(error.find("identity"), std::string::npos);
  EXPECT_FALSE(ValidateQuery(*MustParseRpeq("r.x[(a|<<b) & b*]"), &error));
  // ...but << under '&' in the MAIN path keeps identity (speculative mode).
  EXPECT_TRUE(ValidateQuery(*MustParseRpeq("(r.x.<<b) & _*.b"), &error))
      << error;
}

TEST(OrderAxesTest, DeferredInvalidationForFollowingBodies) {
  // x[>>b]: the qualifier is satisfied by a b AFTER </x> — the instance
  // variable must survive the scope exit.
  const char doc[] = "<r><x>hit</x><b/><x>miss</x></r>";
  EXPECT_EQ(Eval("r.x[>>b]", doc), (std::vector<std::string>{"<x>hit</x>"}));
  EXPECT_EQ(Eval("r.x[>>b]", doc), Oracle("r.x[>>b]", doc));
  // Composition: following body with further steps.
  const char doc2[] = "<r><x>hit</x><k><b/></k></r>";
  EXPECT_EQ(Eval("r.x[>>k.b]", doc2), (std::vector<std::string>{"<x>hit</x>"}));
  EXPECT_EQ(Eval("r.x[>>k.b]", doc2), Oracle("r.x[>>k.b]", doc2));
}

// The end-of-sweep GC erases a binding once its scope closed, so a formula
// FO or PR keeps across scopes must not hold a retired variable: the
// qualifiers before and around the order axis bind variables that retire
// while the armed formula or the pending condition still lives.  Checked
// against the DOM oracle at batch sizes 1, 7 and 64.
TEST(OrderAxesTest, GcLeavesNoRetiredVariableInOrderAxisFormulas) {
  const std::pair<const char*, const char*> literal[] = {
      {"_*.a[x].b[y].>>c", "<r><a><b><y/></b><x/></a><c/></r>"},
      {"_*.r[b[c].>>d]", "<r><b><c/></b><d/></r>"},
  };
  for (const auto& [query_text, xml] : literal) {
    ExprPtr query = MustParseRpeq(query_text);
    const std::vector<StreamEvent> events = MustParseEvents(xml);
    const std::vector<std::string> oracle = Oracle(query_text, xml);
    EXPECT_FALSE(oracle.empty()) << query_text;
    for (int batch : {1, 7, 64}) {
      EngineOptions options;
      options.batch_size = batch;
      EXPECT_EQ(EvaluateToStrings(*query, events, options), oracle)
          << query_text << " batch=" << batch;
    }
  }
  // Each shape's letters A-E are drawn from the document's labels.
  const std::string shapes[] = {
      "_*.A[B].C[D].>>E", "_*.A[B]._*.C[D].>>E", "_*.A[B.C[D].>>E]",
      "_*.A[B[C].>>D]",   "_*.A[B][C].>>D",      "_*.A[B].C[D].<<E",
      "_*.A[B]._*.C[D].<<E", "_*.A[B.C[D].<<E]", "_*.A[B[C].<<D]",
      "_*.A[B][C].<<D",
  };
  RandomTreeOptions opts;
  opts.max_depth = 5;
  opts.max_children = 3;
  opts.max_elements = 40;
  opts.labels = {"a", "b", "c", "d"};
  int non_empty = 0;
  for (int seed = 0; seed < 300; ++seed) {
    const std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateRandomTree(seed, opts, s); });
    Document doc;
    std::string error;
    ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
    std::mt19937 rng(static_cast<uint32_t>(seed));
    for (std::string text : shapes) {
      for (char& c : text) {
        if (c >= 'A' && c <= 'E') c = opts.labels[rng() % 4][0];
      }
      ExprPtr query = MustParseRpeq(text);
      const std::vector<std::string> oracle = DomEvaluateToStrings(*query, doc);
      if (!oracle.empty()) ++non_empty;
      for (int batch : {1, 7, 64}) {
        EngineOptions options;
        options.batch_size = batch;
        ASSERT_EQ(EvaluateToStrings(*query, events, options), oracle)
            << "seed=" << seed << " query=" << text << " batch=" << batch;
      }
    }
  }
  // Enough queries select something for a lost result to show.
  EXPECT_GE(non_empty, 200);
}

class OrderAxesDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderAxesDifferentialTest, AgreesWithOracleOnRandomDocuments) {
  const int seed = GetParam();
  RandomTreeOptions opts;
  opts.max_depth = 5;
  opts.max_children = 3;
  opts.max_elements = 50;
  opts.labels = {"a", "b", "x"};
  opts.root_label = "r";
  std::vector<StreamEvent> events = GenerateToVector(
      [&](EventSink* s) { GenerateRandomTree(seed, opts, s); });
  Document doc;
  std::string error;
  ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
  const char* queries[] = {
      "_*.x.>>a", "_*.x.<<a",    "r._.>>_",     "r._.<<_",
      "_*.a[>>b]", "_*.a[<<b]",  "_*.x.>>a.b",  "(_*.x.>>a)|(_*.b)",
  };
  for (const char* q : queries) {
    ExprPtr query = MustParseRpeq(q);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query=" + q);
    EXPECT_EQ(EvaluateToStrings(*query, events),
              DomEvaluateToStrings(*query, doc));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderAxesDifferentialTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace spex
