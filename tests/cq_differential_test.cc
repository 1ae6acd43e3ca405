// Property-based differential tests for the conjunctive-query translation:
// a randomly generated tree-shaped CQ with a single head variable is
// semantically an rpeq (the chain to the head with the side branches folded
// into qualifiers) — both evaluations must agree exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cq/conjunctive.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/generators.h"

namespace spex {
namespace {

struct GeneratedCq {
  std::string cq_text;
  ExprPtr equivalent_rpeq;
};

// Builds a random chain Root -> X1 -> ... -> Xn (head = Xn) with random
// qualifier branches hanging off the chain, plus the equivalent rpeq.
GeneratedCq MakeRandomChainCq(std::mt19937_64& rng) {
  static const char* kLabels[] = {"a", "b", "c", "_"};
  auto label = [&] { return std::string(kLabels[rng() % 4]); };
  auto step = [&]() -> std::string {
    switch (rng() % 3) {
      case 0:
        return label() + "*";
      case 1:
        return label() + "+";
      default:
        return label();
    }
  };

  int chain_length = 1 + static_cast<int>(rng() % 3);
  GeneratedCq out;
  std::string atoms;
  std::string rpeq;
  int var_counter = 0;
  std::string current = "Root";
  for (int i = 0; i < chain_length; ++i) {
    std::string path = step();
    if (rng() % 2 == 0) path += "." + step();
    std::string next = "X" + std::to_string(++var_counter);
    if (!atoms.empty()) atoms += ", ";
    atoms += current + "(" + path + ") " + next;
    if (!rpeq.empty()) rpeq += ".";
    rpeq += path;
    // Optionally attach a qualifier branch to this chain variable (a
    // non-head leaf in the CQ == a qualifier on the step in the rpeq).
    if (rng() % 2 == 0) {
      std::string qpath = step();
      std::string leaf = "X" + std::to_string(++var_counter);
      atoms += ", " + next + "(" + qpath + ") " + leaf;
      rpeq = rpeq + "[" + qpath + "]";
    }
    current = next;
  }
  out.cq_text = "q(" + current + ") :- " + atoms;
  out.equivalent_rpeq = MustParseRpeq(rpeq);
  return out;
}

// Single-head CQ results fed through ConjunctiveEngine in `batch`-sized
// slices (1 = per event); results are identical at every batch size.
std::vector<std::string> EvaluateCqBatched(
    const ConjunctiveQuery& query, const std::vector<StreamEvent>& events,
    size_t batch) {
  SerializingResultSink sink;
  ConjunctiveEngine engine(query, {&sink});
  EXPECT_TRUE(engine.ok()) << engine.error();
  for (size_t i = 0; i < events.size(); i += batch) {
    engine.OnEventBatch(events.data() + i, std::min(batch, events.size() - i));
  }
  return sink.results();
}

class CqDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CqDifferentialTest, ChainCqEqualsFoldedRpeq) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  RandomTreeOptions opts;
  opts.max_depth = 5;
  opts.max_children = 3;
  opts.max_elements = 60;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  std::vector<StreamEvent> events = GenerateToVector([&](EventSink* s) {
    GenerateRandomTree(static_cast<uint64_t>(GetParam()), opts, s);
  });
  for (int round = 0; round < 6; ++round) {
    GeneratedCq gen = MakeRandomChainCq(rng);
    SCOPED_TRACE("cq=" + gen.cq_text +
                 " rpeq=" + gen.equivalent_rpeq->ToString());
    auto cq = MustParseConjunctiveQuery(gen.cq_text);
    std::string error;
    auto cq_results = EvaluateConjunctive(*cq, events, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(cq_results.size(), 1u);
    EXPECT_EQ(cq_results[0],
              EvaluateToStrings(*gen.equivalent_rpeq, events));
    for (size_t batch : {size_t{7}, size_t{64}}) {
      EXPECT_EQ(EvaluateCqBatched(*cq, events, batch), cq_results[0])
          << "batch=" << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqDifferentialTest, ::testing::Range(0, 15));

TEST(CqDifferentialTest, RootIdentityJoinEqualsIntersection) {
  std::mt19937_64 rng(42);
  RandomTreeOptions opts;
  opts.max_elements = 80;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  for (int seed = 0; seed < 10; ++seed) {
    std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateRandomTree(seed, opts, s); });
    const char* pairs[][2] = {
        {"_*.a", "a+"}, {"_*.b", "_._"}, {"a.b", "_*.b"}};
    for (auto& [p1, p2] : pairs) {
      std::string cq_text = std::string("q(X) :- Root(") + p1 +
                            ") X, Root(" + p2 + ") X";
      auto cq = MustParseConjunctiveQuery(cq_text);
      std::string error;
      auto cq_results = EvaluateConjunctive(*cq, events, &error);
      ASSERT_TRUE(error.empty()) << error;
      ExprPtr join =
          MustParseRpeq(std::string(p1) + " & " + std::string(p2));
      SCOPED_TRACE(cq_text);
      EXPECT_EQ(cq_results[0], EvaluateToStrings(*join, events));
      for (size_t batch : {size_t{7}, size_t{64}}) {
        EXPECT_EQ(EvaluateCqBatched(*cq, events, batch), cq_results[0])
            << "batch=" << batch;
      }
    }
  }
}

}  // namespace
}  // namespace spex
