// Tests of the §V complexity claims, measured through the engine's
// resource accounting:
//   * Lemma V.1  — network degree linear in query size
//   * depth stacks bounded by the stream depth d
//   * condition stacks bounded by d (nested activations)
//   * rpeq* fragment (no qualifiers): constant formula size
//   * rpeq! fragment (qualifiers, no closure): formula size <= min(n, d)
//   * output buffering zero for decided candidates (progressiveness)

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/dom.h"
#include "xml/generators.h"

namespace spex {
namespace {

RunStats RunOn(const std::string& query,
               const std::vector<StreamEvent>& events) {
  ExprPtr e = MustParseRpeq(query);
  CountingResultSink sink;
  SpexEngine engine(*e, &sink);
  for (const StreamEvent& ev : events) engine.OnEvent(ev);
  return engine.ComputeStats();
}

std::vector<StreamEvent> Chain(int depth) {
  return GenerateToVector([&](EventSink* s) {
    GenerateDeepChain(depth, {"a", "b"}, s);
  });
}

TEST(ComplexityTest, DepthStackGrowsLinearlyWithStreamDepth) {
  // S_depth = O(d): doubling the document depth doubles the peak.
  ExprPtr q = MustParseRpeq("_*.a");
  int64_t prev = 0;
  for (int d = 8; d <= 128; d *= 2) {
    RunStats stats = RunOn("_*.a", Chain(d));
    EXPECT_GE(stats.max_depth_stack, d);      // counts every level
    EXPECT_LE(stats.max_depth_stack, d + 2);  // plus <$>
    EXPECT_GT(stats.max_depth_stack, prev);
    prev = stats.max_depth_stack;
  }
}

TEST(ComplexityTest, ConditionStackBoundedByNestedActivations) {
  // A wildcard closure activates every level: condition stacks reach d.
  for (int d = 8; d <= 64; d *= 2) {
    RunStats stats = RunOn("_*.a[b]", Chain(d));
    EXPECT_LE(stats.max_condition_stack, d + 2);
  }
  // A flat document keeps them constant regardless of size.
  std::vector<StreamEvent> flat = GenerateToVector(
      [](EventSink* s) { GenerateWideFlat(5000, "r", "a", s); });
  RunStats stats = RunOn("_*.a[b]", flat);
  EXPECT_LE(stats.max_condition_stack, 4);
}

TEST(ComplexityTest, QualifierFreeQueriesHaveConstantFormulas) {
  // §V, fragment rpeq*: the only formula is `true` (size 0 in our DAG).
  for (int d = 8; d <= 64; d *= 2) {
    RunStats stats = RunOn("_*.a.b+", Chain(d));
    EXPECT_EQ(stats.max_formula_nodes, 0);
  }
}

TEST(ComplexityTest, QualifierWithoutClosureFormulasBounded) {
  // §V, fragment rpeq!: conjunctions of at most min(n, d) variables.
  std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(1, 0.05, s); });
  RunStats one = RunOn("mondial.country[province].name", events);
  EXPECT_LE(one.max_formula_nodes, 1 + 1);  // a single variable
  RunStats two =
      RunOn("mondial.country[province].province[city].name", events);
  EXPECT_LE(two.max_formula_nodes, 3 + 1);  // c1 AND c2
}

TEST(ComplexityTest, WildcardClosureWithQualifierFormulasBoundedByDepth) {
  // §V, fragment rpeq*!: sizes grow with d but stay polynomial for one
  // qualifier (disjunctions of at most d variables).
  for (int d = 8; d <= 64; d *= 2) {
    RunStats stats = RunOn("_*[b]._", Chain(d));
    EXPECT_LE(stats.max_formula_nodes, 4 * d);
  }
}

TEST(ComplexityTest, NetworkDegreeLinear) {
  // Lemma V.1 measured through the compiler.
  std::vector<int> degrees;
  for (int n = 1; n <= 32; n *= 2) {
    std::string q = "_*";
    for (int i = 0; i < n; ++i) q += ".a[b]";
    ExprPtr e = MustParseRpeq(q);
    CountingResultSink sink;
    SpexEngine engine(*e, &sink);
    degrees.push_back(engine.network().node_count());
  }
  // Degree(n) = base + 7n (CH + VC + SP + CH + VF + VD + JO per step).
  for (size_t i = 1; i < degrees.size(); ++i) {
    int n_prev = 1 << (i - 1);
    int n_cur = 1 << i;
    EXPECT_EQ(degrees[i] - degrees[i - 1], 7 * (n_cur - n_prev));
  }
}

TEST(ComplexityTest, TimeMessagesLinearInStreamSize) {
  // T = O(sigma * s): the number of messages processed grows linearly with
  // the stream size for a fixed query.
  ExprPtr q = MustParseRpeq("r.a[b]");
  int64_t prev_messages = 0;
  for (int64_t n = 1000; n <= 8000; n *= 2) {
    std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateWideFlat(n, "r", "a", s); });
    RunStats stats = RunOn("r.a[b]", events);
    if (prev_messages > 0) {
      double ratio = static_cast<double>(stats.total_messages) /
                     static_cast<double>(prev_messages);
      EXPECT_NEAR(ratio, 2.0, 0.2);  // doubling s doubles messages
    }
    prev_messages = stats.total_messages;
  }
}

TEST(ComplexityTest, ProgressiveOutputBuffersOnlyUndecidedCandidates) {
  // Class 1 (no qualifiers): nothing is ever buffered.
  std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(1, 0.05, s); });
  RunStats no_qual = RunOn("_*.province.city", events);
  EXPECT_EQ(no_qual.output.buffered_events_peak, 0);
  EXPECT_GT(no_qual.output.candidates_emitted, 0);
  // Classes 2 and 4 buffer a candidate only while its qualifier instance is
  // undetermined; the peak is bounded by the record size, NOT by the stream
  // size: doubling the document leaves the peak unchanged.
  RunStats past = RunOn("_*.country[province].religions", events);
  EXPECT_GT(past.output.candidates_emitted, 0);
  RunStats future = RunOn("_*.country[province].name", events);
  EXPECT_GT(future.output.buffered_events_peak, 0);
  std::vector<StreamEvent> twice = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(1, 0.1, s); });
  RunStats future2 = RunOn("_*.country[province].name", twice);
  EXPECT_EQ(future2.output.buffered_events_peak,
            future.output.buffered_events_peak);
  EXPECT_LE(past.output.buffered_events_peak, 64);
  EXPECT_LE(future.output.buffered_events_peak, 64);
}

TEST(ComplexityTest, EndDocumentLeavesNoResidue) {
  std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(3, 0.02, s); });
  ExprPtr q = MustParseRpeq("_*.country[province].name");
  CountingResultSink sink;
  SpexEngine engine(*q, &sink);
  for (const StreamEvent& ev : events) engine.OnEvent(ev);
  RunStats stats = engine.ComputeStats();
  EXPECT_EQ(stats.output.candidates_created,
            stats.output.candidates_emitted + stats.output.candidates_dropped);
}

// `>>` outside qualifier bodies: FO collapses its armed disjunction to
// `true` once it holds, so the formulas stay flat however long the stream
// runs.  A disjunction over every closed context would grow linearly —
// and the run time quadratically — with the stream: 2,859 / 5,691 /
// 11,377 nodes at these three sizes.
TEST(ComplexityTest, FollowingAxisFormulasFlatInStreamSize) {
  ExprPtr q = MustParseRpeq("_*.Topic[editor].>>newsGroup");
  std::vector<int64_t> peaks;
  for (double scale : {0.004, 0.008, 0.016}) {
    SCOPED_TRACE(scale);
    const std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateDmozLike(42, scale, false, s); });
    SerializingResultSink sink;
    SpexEngine engine(*q, &sink);
    for (size_t i = 0; i < events.size(); i += 64) {
      engine.OnEventBatch(events.data() + i,
                          std::min<size_t>(64, events.size() - i));
    }
    peaks.push_back(engine.ComputeStats().max_formula_nodes);
    Document doc;
    std::string error;
    ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
    EXPECT_EQ(sink.results(), DomEvaluateToStrings(*q, doc));
    EXPECT_FALSE(sink.results().empty());
  }
  EXPECT_LE(peaks[0], 2);
  EXPECT_EQ(peaks[1], peaks[0]);
  EXPECT_EQ(peaks[2], peaks[0]);
}

// Thread-local state outlives its session: the Simplify memo keeps the
// capacity a large formula grew it to.  A small session's memo work must
// not depend on what ran on the thread before it — the slots its rewrites
// reset are the same after a large-formula session as on a fresh thread.
int64_t MemoSlotsClearedBy(const char* query,
                           const std::vector<StreamEvent>& events) {
  const int64_t before = Formula::SimplifyMemoSlotsCleared();
  CountMatches(*MustParseRpeq(query), events);
  return Formula::SimplifyMemoSlotsCleared() - before;
}

TEST(ComplexityTest, SimplifyMemoWorkIndependentOfEarlierSessions) {
  const std::vector<StreamEvent> events = GenerateToVector([](EventSink* s) {
    GenerateDmozLike(42, 0.002, /*content=*/false, s);
  });
  const char kSmall[] = "_*.Topic[editor].newsGroup";
  // A qualifier under a wildcard closure on a 256-deep chain: disjunctions
  // of ~500 nodes.
  const char kLarge[] = "_*[a]._*";
  const std::vector<StreamEvent> deep = Chain(256);
  int64_t fresh = 0;
  int64_t large = 0;
  int64_t after_large = 0;
  std::thread([&] { fresh = MemoSlotsClearedBy(kSmall, events); }).join();
  std::thread([&] {
    large = MemoSlotsClearedBy(kLarge, deep);
    after_large = MemoSlotsClearedBy(kSmall, events);
  }).join();
  EXPECT_GT(fresh, 0);
  EXPECT_GT(large, fresh);
  EXPECT_EQ(after_large, fresh);
}

// The retired-variable list is cleared every round, and every retired
// binding is erased with it — order-axis queries included, whose FO and PR
// rewrite the formulas they keep across scopes as each determination
// passes.  (The list used to grow by one entry per qualifier instance for
// the whole stream, and order-axis queries used to keep every binding.)
TEST(ComplexityTest, RetiredVariablesClearedEveryRoundWithoutGc) {
  const std::vector<StreamEvent> events = GenerateToVector([](EventSink* s) {
    GenerateDmozLike(42, 0.002, /*content=*/false, s);
  });
  for (const char* query : {"_*.Topic[editor].>>newsGroup",
                            "_*.Topic[editor.<<catid]",
                            "_*.Topic[editor].newsGroup"}) {
    for (size_t batch : {size_t{1}, size_t{64}}) {
      SCOPED_TRACE(std::string(query) + " batch=" + std::to_string(batch));
      ExprPtr q = MustParseRpeq(query);
      CountingResultSink sink;
      SpexEngine engine(*q, &sink);
      for (size_t i = 0; i < events.size(); i += batch) {
        engine.OnEventBatch(events.data() + i,
                            std::min(batch, events.size() - i));
      }
      EXPECT_TRUE(engine.context().retired_variables.empty());
      EXPECT_EQ(engine.context().assignment.size(), 0u);
    }
  }
}

// No binding outlives its scope on the order axes either: over a 16x size
// sweep the assignment holds at most one binding after every batch (without
// the GC, 1,800 / 3,600 / 7,200 / 14,400 / 28,800 at these sizes), and the
// results equal the DOM oracle's.  (DMOZ-like Topics hold no catid: the
// second query selects nothing, but it creates an instance per Topic.)
TEST(ComplexityTest, OrderAxisBindingsFlatInStreamSize) {
  for (double scale : {0.002, 0.004, 0.008, 0.016, 0.032}) {
    const std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateDmozLike(42, scale, false, s); });
    Document doc;
    std::string error;
    ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
    for (const char* query :
         {"_*.Topic[editor].>>newsGroup", "_*.Topic[editor.<<catid]"}) {
      ExprPtr q = MustParseRpeq(query);
      const std::vector<std::string> oracle = DomEvaluateToStrings(*q, doc);
      for (size_t batch : {size_t{1}, size_t{64}}) {
        SCOPED_TRACE(std::string(query) + " scale=" + std::to_string(scale) +
                     " batch=" + std::to_string(batch));
        SerializingResultSink sink;
        SpexEngine engine(*q, &sink);
        size_t peak = 0;
        for (size_t i = 0; i < events.size(); i += batch) {
          engine.OnEventBatch(events.data() + i,
                              std::min(batch, events.size() - i));
          peak = std::max(peak, engine.context().assignment.size());
        }
        EXPECT_LE(peak, 1u);
        EXPECT_EQ(sink.results(), oracle);
      }
    }
  }
}

// `>>` inside a qualifier body: FO keeps the enclosing instances it armed
// symbolic until </$> (VD binds them downstream), so the armed disjunction
// grows with the stream and every body match carries it to VD.  VD
// isolates only the instances not yet decided, so the rewrite work grows
// about 4x per doubling of the input (quadratic), not 9x (cubic, as when
// every instance was isolated again on every match).
TEST(ComplexityTest, FollowingInsideQualifierBodyAtMostQuadratic) {
  const char kQuery[] = "_*.Topic[editor.>>newsGroup]";
  ExprPtr q = MustParseRpeq(kQuery);
  std::vector<int64_t> work;
  for (double scale : {0.00025, 0.0005, 0.001}) {
    SCOPED_TRACE(scale);
    const std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateDmozLike(42, scale, false, s); });
    Document doc;
    std::string error;
    ASSERT_TRUE(EventsToDocument(events, &doc, &error)) << error;
    work.push_back(MemoSlotsClearedBy(kQuery, events));
    const std::vector<std::string> results = EvaluateToStrings(*q, events);
    EXPECT_EQ(results, DomEvaluateToStrings(*q, doc));
    EXPECT_FALSE(results.empty());
  }
  for (size_t i = 1; i < work.size(); ++i) {
    EXPECT_LE(work[i], 5 * work[i - 1]) << work[i - 1] << " -> " << work[i];
  }
}

}  // namespace
}  // namespace spex
