// Integration matrix: every §VI query class on every generated corpus,
// under both output policies and both formula-update modes, checked
// against the DOM oracle — the full cross-module sweep.

#include <gtest/gtest.h>

#include <tuple>

#include "baseline/dom_evaluator.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/dom.h"
#include "xml/generators.h"

namespace spex {
namespace {

enum class Corpus { kMondial, kWordnet, kDmoz };

const char* CorpusName(Corpus c) {
  switch (c) {
    case Corpus::kMondial:
      return "mondial";
    case Corpus::kWordnet:
      return "wordnet";
    case Corpus::kDmoz:
      return "dmoz";
  }
  return "?";
}

const std::vector<StreamEvent>& CorpusEvents(Corpus c) {
  auto make = [](Corpus corpus) {
    return new std::vector<StreamEvent>(
        GenerateToVector([corpus](EventSink* s) {
          switch (corpus) {
            case Corpus::kMondial:
              GenerateMondialLike(5, 0.03, s);
              break;
            case Corpus::kWordnet:
              GenerateWordnetLike(5, 0.01, s);
              break;
            case Corpus::kDmoz:
              GenerateDmozLike(5, 0.001, false, s);
              break;
          }
        }));
  };
  static const std::vector<StreamEvent>* mondial = make(Corpus::kMondial);
  static const std::vector<StreamEvent>* wordnet = make(Corpus::kWordnet);
  static const std::vector<StreamEvent>* dmoz = make(Corpus::kDmoz);
  switch (c) {
    case Corpus::kMondial:
      return *mondial;
    case Corpus::kWordnet:
      return *wordnet;
    case Corpus::kDmoz:
      return *dmoz;
  }
  return *mondial;
}

// The four §VI query classes per corpus (class id 1..4).
std::string ClassQuery(Corpus c, int cls) {
  switch (c) {
    case Corpus::kMondial:
      switch (cls) {
        case 1: return "_*.province.city";
        case 2: return "_*.country[province].name";
        case 3: return "_*._";
        default: return "_*.country[province].religions";
      }
    case Corpus::kWordnet:
      switch (cls) {
        case 1: return "_*.Noun.wordForm";
        case 2: return "_*.Noun[wordForm]";
        case 3: return "_*._";
        default: return "_*.Noun[wordForm].gloss";
      }
    case Corpus::kDmoz:
      switch (cls) {
        case 1: return "_*.Topic.Title";
        case 2: return "_*.Topic[editor].Title";
        case 3: return "_*._";
        default: return "_*.Topic[editor].newsGroup";
      }
  }
  return "_";
}

using MatrixParam = std::tuple<int /*corpus*/, int /*class*/, int /*policy*/>;

class IntegrationMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(IntegrationMatrixTest, SpexCountEqualsOracleCount) {
  auto [corpus_i, cls, policy_i] = GetParam();
  Corpus corpus = static_cast<Corpus>(corpus_i);
  const std::vector<StreamEvent>& events = CorpusEvents(corpus);
  std::string query_text = ClassQuery(corpus, cls);
  ExprPtr query = MustParseRpeq(query_text);
  SCOPED_TRACE(std::string(CorpusName(corpus)) + " class " +
               std::to_string(cls) + " " + query_text);

  EngineOptions options;
  options.output_order = policy_i == 0 ? OutputOrder::kDocumentStart
                                       : OutputOrder::kDetermination;

  CountingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  for (const StreamEvent& e : events) engine.OnEvent(e);

  Document doc;
  std::string error;
  ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
  int64_t expected =
      static_cast<int64_t>(EvaluateOnDocument(*query, doc).size());
  EXPECT_EQ(sink.results(), expected);

  // Consistency of the output accounting.
  RunStats stats = engine.ComputeStats();
  EXPECT_EQ(stats.output.candidates_emitted, sink.results());
  EXPECT_EQ(stats.output.candidates_created,
            stats.output.candidates_emitted + stats.output.candidates_dropped);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IntegrationMatrixTest,
    ::testing::Combine(::testing::Range(0, 3),    // corpus
                       ::testing::Range(1, 5),    // query class
                       ::testing::Range(0, 2)),   // output policy
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      // (no structured bindings here: the commas would split the macro)
      int c = std::get<0>(info.param);
      int cls = std::get<1>(info.param);
      int p = std::get<2>(info.param);
      // "_eager": the transducers rewrite stored formulas as determinations
      // pass (update(c,v,beta)); the suffix keeps the instance names stable.
      return std::string(CorpusName(static_cast<Corpus>(c))) + "_cls" +
             std::to_string(cls) + (p == 0 ? "_docorder" : "_detorder") +
             "_eager";
    });

}  // namespace
}  // namespace spex
