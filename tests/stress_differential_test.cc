// The widest differential net in the suite: random queries drawn from the
// FULL language (child/closure/union/intersection/optional/qualifiers and
// both order axes) against random documents, checked against the DOM oracle
// under every engine configuration.  A 400-seed offline run of this
// generator (4,000 queries) is what uncovered the preceding-under-&
// validation hole; the bounded version keeps guarding it.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "baseline/dom_evaluator.h"
#include "rpeq/parser.h"
#include "spex/compiler.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/dom.h"
#include "xml/generators.h"

namespace spex {
namespace {

std::string RandomLabel(std::mt19937_64& rng) {
  static const char* kLabels[] = {"a", "b", "c", "_"};
  return kLabels[rng() % 4];
}

ExprPtr GenLeaf(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0:
      return MakeClosure(RandomLabel(rng), /*positive=*/true);
    case 1:
      return MakeClosure(RandomLabel(rng), /*positive=*/false);
    case 2:
      return MakeFollowing(RandomLabel(rng));
    case 3:
      return MakePreceding(RandomLabel(rng));
    default:
      return MakeLabel(RandomLabel(rng));
  }
}

ExprPtr GenQuery(std::mt19937_64& rng, int budget) {
  if (budget <= 1) return GenLeaf(rng);
  switch (rng() % 8) {
    case 0:
    case 1:
    case 2:
      return MakeConcat(GenQuery(rng, budget / 2),
                        GenQuery(rng, budget - budget / 2));
    case 3:
      return MakeUnion(GenQuery(rng, budget / 2),
                       GenQuery(rng, budget - budget / 2));
    case 4:
      return MakeIntersect(GenQuery(rng, budget / 2),
                           GenQuery(rng, budget - budget / 2));
    case 5:
      return MakeOptional(GenQuery(rng, budget - 1));
    default:
      return MakeQualified(GenQuery(rng, budget / 2),
                           GenQuery(rng, budget - budget / 2));
  }
}

class StressDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StressDifferentialTest, FullLanguageAgreesWithOracleInAllModes) {
  const int seed = GetParam();
  RandomTreeOptions opts;
  opts.max_depth = 6;
  opts.max_children = 3;
  opts.max_elements = 70;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  std::vector<StreamEvent> events = GenerateToVector(
      [&](EventSink* s) { GenerateRandomTree(seed, opts, s); });
  Document doc;
  std::string error;
  ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;

  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 65537 + 1);
  int checked = 0;
  for (int q = 0; q < 10; ++q) {
    ExprPtr query = GenQuery(rng, 2 + q % 7);
    std::string verror;
    if (!ValidateQuery(*query, &verror)) continue;  // out of the fragment
    ++checked;
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " query=" + query->ToString());
    std::vector<std::string> oracle = DomEvaluateToStrings(*query, doc);
    // Default configuration: exact match including order.
    EXPECT_EQ(EvaluateToStrings(*query, events), oracle);
    // Determination-order policy: same fragment set.
    EngineOptions det;
    det.output_order = OutputOrder::kDetermination;
    std::vector<std::string> got = EvaluateToStrings(*query, events, det);
    std::sort(got.begin(), got.end());
    std::vector<std::string> sorted = oracle;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(got, sorted);
  }
  // Most random queries are in the supported fragment.
  EXPECT_GE(checked, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressDifferentialTest,
                         ::testing::Range(0, 40));

// Long-stream memory discipline: a deep recursive query over >= 100k
// document messages must keep the per-message formula high-water mark
// bounded by the document's structure (depth x qualifier instances), not by
// stream length — the §V space claim, and the regression guard for the
// pooled-formula/zero-copy routing hot path (DESIGN.md "Hot path & memory
// discipline").
TEST(StressLongStreamTest, DeepRecursiveQueryKeepsFormulaMemoryBounded) {
  const int64_t live_before = Formula::LiveNodeCount();
  RandomTreeOptions opts;
  opts.max_depth = 14;
  opts.max_children = 4;
  opts.max_elements = 60000;  // >= 100k messages incl. end tags
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  std::vector<StreamEvent> events = GenerateToVector(
      [&](EventSink* s) { GenerateRandomTree(7, opts, s); });

  // Nested qualifiers under a descendant closure: every element spawns
  // qualifier instances whose conditions resolve only when subtrees close.
  // The document is fed several times (each pass is a complete document) to
  // push the stream past 100k messages.
  const int kPasses =
      static_cast<int>(100000 / events.size()) + 1;
  ExprPtr query = MustParseRpeq("_*.a[b[c].c].b");
  CountingResultSink sink;
  {
    SpexEngine engine(*query, &sink);
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const StreamEvent& e : events) engine.OnEvent(e);
    }
    RunStats stats = engine.ComputeStats();
    ASSERT_GE(stats.events_processed, 100000);
    EXPECT_EQ(stats.events_processed,
              kPasses * static_cast<int64_t>(events.size()));
    // The peak formula size must track depth/branching, not the ~100k+
    // stream length.  The generous constant still fails immediately if
    // formulas (or the assignment GC) start leaking per-message state.
    EXPECT_GT(stats.max_formula_nodes, 0);
    EXPECT_LT(stats.max_formula_nodes, 2000);
    EXPECT_GT(sink.results(), 0);
  }
  // Destroying the engine returns every pooled formula node: no leaks
  // across a long run.
  EXPECT_EQ(Formula::LiveNodeCount(), live_before);
}

}  // namespace
}  // namespace spex
