// Tests of the conjunctive-query extension (paper §VII, Fig. 16).

#include "cq/conjunctive.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "rpeq/parser.h"
#include "spex/engine.h"
#include "test_util.h"

namespace spex {
namespace {

constexpr char kPaperDoc[] = "<a><a><c/></a><b/><c/></a>";

TEST(CqParserTest, ParsesThePaperExample) {
  // §VII: q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3
  auto q = MustParseConjunctiveQuery(
      "q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3");
  EXPECT_EQ(q->name, "q");
  EXPECT_EQ(q->head, (std::vector<std::string>{"X3"}));
  ASSERT_EQ(q->atoms.size(), 3u);
  EXPECT_EQ(q->atoms[0].source, "Root");
  EXPECT_EQ(q->atoms[0].path->ToString(), "_*.a");
  EXPECT_EQ(q->atoms[0].target, "X1");
  EXPECT_EQ(q->ToString(),
            "q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3");
}

TEST(CqParserTest, MultipleHeadVariables) {
  auto q = MustParseConjunctiveQuery(
      "pairs(X2,X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3");
  EXPECT_EQ(q->head, (std::vector<std::string>{"X2", "X3"}));
}

TEST(CqParserTest, Errors) {
  EXPECT_FALSE(ParseConjunctiveQuery("q() :- Root(a) X1").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("q(X1)").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("q(X1) :- Root(a)").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("q(X1) :- Root(a..b) X1").ok());
  EXPECT_FALSE(ParseConjunctiveQuery("q(X1) :- Root(a) X1 trailing").ok());
}

std::vector<std::vector<std::string>> RunCq(const std::string& cq,
                                          const std::string& xml) {
  auto query = MustParseConjunctiveQuery(cq);
  std::string error;
  auto result = EvaluateConjunctive(*query, MustParseEvents(xml), &error);
  EXPECT_TRUE(error.empty()) << error;
  return result;
}

TEST(CqEngineTest, PaperExampleEquivalentToRpeq) {
  // §VII: the example CQ is equivalent to _*.a[b].c.
  auto cq_result =
      RunCq("q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3", kPaperDoc);
  ASSERT_EQ(cq_result.size(), 1u);
  ExprPtr rpeq = MustParseRpeq("_*.a[b].c");
  EXPECT_EQ(cq_result[0], EvaluateToStrings(*rpeq, MustParseEvents(kPaperDoc)));
  EXPECT_EQ(cq_result[0], (std::vector<std::string>{"<c></c>"}));
}

TEST(CqEngineTest, SimpleChain) {
  auto r = RunCq("q(X2) :- Root(a) X1, X1(a) X2", kPaperDoc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"<a><c></c></a>"}));
}

TEST(CqEngineTest, MultipleSinksShareThePrefix) {
  auto r = RunCq("q(X2,X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3", kPaperDoc);
  ASSERT_EQ(r.size(), 2u);
  // X2: b children of a's that ALSO have a c child (conjunctivity).
  EXPECT_EQ(r[0], (std::vector<std::string>{"<b></b>"}));
  // X3: c children of a's that also have a b child.
  EXPECT_EQ(r[1], (std::vector<std::string>{"<c></c>"}));
}

TEST(CqEngineTest, IntermediateHeadVariable) {
  auto r = RunCq("q(X1) :- Root(_*.a) X1, X1(b) X2", kPaperDoc);
  ASSERT_EQ(r.size(), 1u);
  // a's with a b child: the outer a.
  ASSERT_EQ(r[0].size(), 1u);
  EXPECT_EQ(r[0][0], "<a><a><c></c></a><b></b><c></c></a>");
}

TEST(CqEngineTest, DeepQualifierSubtreeFolding) {
  // X3/X4 lead to no head variable: they fold into nested qualifiers
  // [c[a]] on X1's step.
  const char doc[] = "<r><x><c><a/></c><t/></x><x><c/><t/></x></r>";
  auto r = RunCq("q(X2) :- Root(r.x) X1, X1(t) X2, X1(c) X3, X3(a) X4", doc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"<t></t>"}));
}

TEST(CqEngineTest, IdentityJoinFromRootDesugarsToIntersection) {
  // §I "node-identity joins": nodes reachable via both Root paths.
  auto q = MustParseConjunctiveQuery(
      "q(X) :- Root(a.c) X, Root(_*.c) X");
  std::string error;
  auto r = EvaluateConjunctive(*q, MustParseEvents(kPaperDoc), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"<c></c>"}));
}

TEST(CqEngineTest, RejectsJoinsAndBadQueries) {
  std::vector<ResultSink*> sinks;
  CountingResultSink sink;
  sinks.push_back(&sink);
  {
    // X2 defined twice by non-Root paths = unsupported identity join.
    auto q = MustParseConjunctiveQuery(
        "q(X2) :- Root(a) X1, X1(b) X2, X1(c) X2");
    ConjunctiveEngine engine(*q, sinks);
    EXPECT_FALSE(engine.ok());
    EXPECT_NE(engine.error().find("join"), std::string::npos);
  }
  {
    // Undefined source variable.
    auto q = MustParseConjunctiveQuery("q(X2) :- X9(b) X2");
    ConjunctiveEngine engine(*q, sinks);
    EXPECT_FALSE(engine.ok());
  }
  {
    // Head variable never defined.
    auto q = MustParseConjunctiveQuery("q(X5) :- Root(a) X1");
    ConjunctiveEngine engine(*q, sinks);
    EXPECT_FALSE(engine.ok());
  }
  {
    // Root as head.
    auto q = MustParseConjunctiveQuery("q(Root) :- Root(a) X1");
    ConjunctiveEngine engine(*q, sinks);
    EXPECT_FALSE(engine.ok());
  }
  {
    // Sink count mismatch.
    auto q = MustParseConjunctiveQuery(
        "q(X1,X2) :- Root(a) X1, X1(b) X2");
    ConjunctiveEngine engine(*q, sinks);
    EXPECT_FALSE(engine.ok());
  }
}

TEST(CqEngineTest, HeadVariableWithDownstreamAtoms) {
  // X1 is a head variable AND has a head-path child: the tape is split and
  // X1's sink requires the existence of X2 (conjunctive semantics).
  const char doc[] = "<r><x><y/></x><x/></r>";
  auto r = RunCq("q(X1,X2) :- Root(r.x) X1, X1(y) X2", doc);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"<x><y></y></x>"}));
  EXPECT_EQ(r[1], (std::vector<std::string>{"<y></y>"}));
}

TEST(CqEngineTest, ClosurePathsInAtoms) {
  auto r = RunCq("q(X2) :- Root(_*) X1, X1(c+) X2", kPaperDoc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].size(), 2u);  // both c's
}

TEST(CqEngineTest, GovernorSealsCertainPrefixPerHead) {
  // A conjunctive query runs on the same core as SpexEngine, so its
  // EngineOptions apply: a max_events breach poisons the run, and sealing
  // leaves each head's certain results a prefix of the unlimited run's.
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) {
    xml += i % 3 == 0 ? "<x><y/><z/></x>" : "<x><z/><y/></x>";
  }
  xml += "</r>";
  const std::vector<StreamEvent> events = MustParseEvents(xml);
  auto q = MustParseConjunctiveQuery(
      "q(X1,X2) :- Root(r.x) X1, X1(y) X2, X1(z) X3");
  const std::vector<std::vector<std::string>> unlimited =
      RunCq("q(X1,X2) :- Root(r.x) X1, X1(y) X2, X1(z) X3", xml);
  ASSERT_EQ(unlimited.size(), 2u);

  for (int batch : {1, 7, 64}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    SerializingResultSink heads[2];
    EngineOptions options;
    options.limits.max_events = static_cast<int64_t>(events.size() / 2);
    ConjunctiveEngine engine(*q, {&heads[0], &heads[1]}, options);
    ASSERT_TRUE(engine.ok()) << engine.error();
    for (size_t i = 0; i < events.size(); i += static_cast<size_t>(batch)) {
      engine.OnEventBatch(events.data() + i,
                          std::min(static_cast<size_t>(batch),
                                   events.size() - i));
    }
    EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
    engine.FinalizeTruncated();
    EXPECT_TRUE(engine.truncated());
    for (int h = 0; h < 2; ++h) {
      SCOPED_TRACE("head=" + std::to_string(h));
      const int64_t certain = engine.certain_result_count(h);
      EXPECT_GT(certain, 0);
      ASSERT_LE(certain, static_cast<int64_t>(unlimited[h].size()));
      ASSERT_GE(static_cast<int64_t>(heads[h].results().size()), certain);
      for (int64_t i = 0; i < certain; ++i) {
        EXPECT_EQ(heads[h].results()[static_cast<size_t>(i)],
                  unlimited[h][static_cast<size_t>(i)]);
      }
    }
  }
}

}  // namespace
}  // namespace spex
