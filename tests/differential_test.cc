// Property-based differential tests: SPEX (streaming transducer network)
// must agree with the DOM oracle (recursive set semantics of §II.2) on
// random documents x random queries, and with the NFA baseline on
// qualifier-free queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "baseline/dom_evaluator.h"
#include "baseline/nfa_evaluator.h"
#include "query_gen.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/dom.h"
#include "xml/generators.h"

namespace spex {
namespace {

std::vector<StreamEvent> RandomDoc(uint64_t seed, int max_depth,
                                   int64_t max_elements) {
  RandomTreeOptions opts;
  opts.max_depth = max_depth;
  opts.max_children = 3;
  opts.max_elements = max_elements;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  return GenerateToVector(
      [&](EventSink* sink) { GenerateRandomTree(seed, opts, sink); });
}

std::vector<std::string> Oracle(const Expr& query,
                                const std::vector<StreamEvent>& events) {
  Document doc;
  std::string error;
  EXPECT_TRUE(EventsToDocument(events, &doc, &error)) << error;
  return DomEvaluateToStrings(query, doc);
}

class DifferentialSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialSeedTest, SpexAgreesWithDomOracle) {
  const int seed = GetParam();
  std::vector<StreamEvent> events = RandomDoc(seed, 5, 60);
  QueryGen gen(seed * 7919 + 13, /*with_qualifiers=*/true);
  for (int q = 0; q < 8; ++q) {
    ExprPtr query = gen.Gen(2 + q);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " query=" + query->ToString());
    EXPECT_EQ(EvaluateToStrings(*query, events), Oracle(*query, events));
  }
}

TEST_P(DifferentialSeedTest, NfaAgreesOnQualifierFreeQueries) {
  const int seed = GetParam();
  std::vector<StreamEvent> events = RandomDoc(seed + 2000, 5, 80);
  QueryGen gen(seed * 31 + 5, /*with_qualifiers=*/false);
  for (int q = 0; q < 6; ++q) {
    ExprPtr query = gen.Gen(2 + q);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " query=" + query->ToString());
    int64_t nfa = NfaCountMatches(*query, events);
    ASSERT_GE(nfa, 0);
    EXPECT_EQ(nfa, CountMatches(*query, events));
    Document doc;
    std::string error;
    ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
    EXPECT_EQ(nfa,
              static_cast<int64_t>(EvaluateOnDocument(*query, doc).size()));
  }
}

TEST_P(DifferentialSeedTest, DeepNarrowDocuments) {
  // Deep chains exercise the scope stacks.
  const int seed = GetParam();
  std::vector<StreamEvent> events = RandomDoc(seed + 3000, 12, 40);
  QueryGen gen(seed * 17 + 3, /*with_qualifiers=*/true);
  for (int q = 0; q < 4; ++q) {
    ExprPtr query = gen.Gen(4);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " query=" + query->ToString());
    EXPECT_EQ(EvaluateToStrings(*query, events), Oracle(*query, events));
  }
}


TEST_P(DifferentialSeedTest, DeterminationOrderPolicyMatchesAsSet) {
  const int seed = GetParam();
  std::vector<StreamEvent> events = RandomDoc(seed + 4000, 6, 60);
  QueryGen gen(seed * 2221 + 9, /*with_qualifiers=*/true);
  EngineOptions interleaved;
  interleaved.output_order = OutputOrder::kDetermination;
  for (int q = 0; q < 4; ++q) {
    ExprPtr query = gen.Gen(3 + q);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " query=" + query->ToString());
    std::vector<std::string> a = EvaluateToStrings(*query, events);
    std::vector<std::string> b =
        EvaluateToStrings(*query, events, interleaved);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeedTest,
                         ::testing::Range(0, 25));

// The cross-engine battery: 525 random (query, document) pairs spread over
// knob configurations covering every language construct — structural-only
// (the NFA-comparable subset), qualifiers, order axes, and the full
// language with node-identity joins, on both bushy and deep documents.
// For every pair SPEX must emit exactly the DOM oracle's results, as
// strings, in document order; whenever the NFA baseline supports the query
// (no qualifiers/axes/joins) its match count must agree too.  All seeds
// are fixed, so a failure reproduces from the SCOPED_TRACE line alone.
TEST(DifferentialBattery, SpexDomAndNfaAgreeOnFiveHundredPairs) {
  struct Config {
    const char* name;
    QueryGenKnobs knobs;
    int budget;        // ~leaf count per query
    int doc_depth;
    int64_t doc_elements;
  };
  const std::vector<Config> configs = {
      {"structural", QueryGenKnobs::Structural(), 4, 5, 60},
      {"qualifiers", QueryGenKnobs{}, 5, 5, 60},
      {"axes", QueryGenKnobs::WithAxes(30), 4, 5, 50},
      {"full", QueryGenKnobs::Full(), 6, 6, 60},
      {"deep", QueryGenKnobs::Full(), 8, 10, 40},
  };
  int pairs = 0;
  int nfa_pairs = 0;
  for (size_t c = 0; c < configs.size(); ++c) {
    const Config& config = configs[c];
    for (int seed = 0; seed < 21; ++seed) {
      const uint64_t doc_seed = static_cast<uint64_t>(seed) * 131 + c;
      std::vector<StreamEvent> events =
          RandomDoc(doc_seed, config.doc_depth, config.doc_elements);
      Document doc;
      std::string error;
      ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
      QueryGen gen(static_cast<uint64_t>(seed) * 9176 + c * 77 + 1,
                   config.knobs);
      for (int q = 0; q < 5; ++q) {
        ExprPtr query = gen.Gen(config.budget);
        SCOPED_TRACE(std::string(config.name) +
                     " seed=" + std::to_string(seed) +
                     " q=" + std::to_string(q) +
                     " query=" + query->ToString());
        const std::vector<std::string> spex = EvaluateToStrings(*query, events);
        ASSERT_EQ(spex, DomEvaluateToStrings(*query, doc));
        const int64_t nfa = NfaCountMatches(*query, events);
        if (nfa >= 0) {
          EXPECT_EQ(nfa, static_cast<int64_t>(spex.size()));
          ++nfa_pairs;
        }
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 500);
  // The structural config alone keeps the three-way comparison meaningful.
  EXPECT_GE(nfa_pairs, 100);
}

// Hand-picked regression queries on the same documents for every seed.
class FixedQueryDifferentialTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FixedQueryDifferentialTest, AgreesOnManyDocuments) {
  ExprPtr query = MustParseRpeq(GetParam());
  for (int seed = 0; seed < 10; ++seed) {
    std::vector<StreamEvent> events = RandomDoc(seed, 6, 80);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " query=" + GetParam());
    EXPECT_EQ(EvaluateToStrings(*query, events), Oracle(*query, events));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, FixedQueryDifferentialTest,
    ::testing::Values("a", "_", "_*._", "a+.c+", "_*.a[b].c", "_*.a[b]._*.c",
                      "a.(b|c)", "(a|b).c", "a?.b?.c", "_*.a[b[c]]",
                      "_*.a[b][c]", "a[_*.c].b", "_+", "_+._+",
                      "a[b|c]", "_*.a[b?]", "(a.b)|(a.c)", "a[b].a[c]",
                      "_*.b[a+]", "a*.c", "_*.a[_._]"));

}  // namespace
}  // namespace spex
