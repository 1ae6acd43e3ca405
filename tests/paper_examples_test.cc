// Replays the paper's worked examples and asserts the *exact* transition
// sequences of its figures:
//   * Fig. 4  — child transducers for a.c      (Example III.1)
//   * Fig. 5  — closure transducers for a+.c+  (Example III.2)
//   * Fig. 13 — the complete network for _*.a[b].c (§III.10)
// The traces are grouped per document message: each group lists the rules
// fired for the control messages preceding the document message plus the
// rule for the document message itself, comma-joined — the presentation of
// the figures.  Every trace is checked per event and fed in batches of 7 and
// 64 events: the network's one delivery path (the topological sweep) must
// reproduce the figures at every feeding granularity.

#include <gtest/gtest.h>

#include <algorithm>

#include "rpeq/parser.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/xml_parser.h"

namespace spex {
namespace {

// The stream of Fig. 1: <$> <a> <a> <c> </c> </a> <b> </b> <c> </c> </a> </$>
constexpr char kPaperDoc[] = "<a><a><c/></a><b/><c/></a>";

class TracedRun {
 public:
  // Feeds the document through OnEvent (`batch` 1) or OnEventBatch slices.
  TracedRun(const std::string& query, const std::string& xml, size_t batch = 1)
      : query_(MustParseRpeq(query)),
        sink_(),
        engine_(std::make_unique<SpexEngine>(*query_, &sink_)),
        traces_(&engine_->network()) {
    std::vector<StreamEvent> events;
    std::string error;
    EXPECT_TRUE(ParseXmlToEvents(xml, &events, &error)) << error;
    for (size_t i = 0; i < events.size(); i += batch) {
      if (batch == 1) {
        engine_->OnEvent(events[i]);
      } else {
        engine_->OnEventBatch(events.data() + i,
                              std::min(batch, events.size() - i));
      }
    }
  }

  std::string Trace(const std::string& name) const {
    const TransducerTrace* t = traces_.Find(name);
    EXPECT_NE(t, nullptr) << "no transducer named " << name << "\n"
                          << engine_->network().Describe();
    return t == nullptr ? "" : t->ToString();
  }

  SpexEngine& engine() { return *engine_; }
  const std::vector<std::string>& results() const { return sink_.results(); }

 private:
  ExprPtr query_;
  SerializingResultSink sink_;
  std::unique_ptr<SpexEngine> engine_;
  NetworkTraces traces_;
};

void ExpectFig4Traces(size_t batch) {
  TracedRun run("a.c", kPaperDoc, batch);
  // Fig. 4, row T1 = CH(a):
  EXPECT_EQ(run.Trace("CH(a)"), "1,5 7 2 2 3 3 2 3 2 3 4 9");
  // Fig. 4, row T2 = CH(c):
  EXPECT_EQ(run.Trace("CH(c)"), "2 1,5 8 2 3 4 8 4 7 4 9 3");
  EXPECT_EQ(run.results(), (std::vector<std::string>{"<c></c>"}));
}

void ExpectFig5Traces(size_t batch) {
  TracedRun run("a+.c+", kPaperDoc, batch);
  // Fig. 5, row T1 = CL(a):
  EXPECT_EQ(run.Trace("CL(a)"), "1,5 7 7 8 4 9 8 4 8 4 9 11");
  // Fig. 5, row T2 = CL(c):
  EXPECT_EQ(run.Trace("CL(c)"), "2 1,5 6,13 7 9 10 8 4 7 9 11 3");
  EXPECT_EQ(run.results(),
            (std::vector<std::string>{"<c></c>", "<c></c>"}));
}

void ExpectFig13Traces(size_t batch) {
  TracedRun run("_*.a[b].c", kPaperDoc, batch);
  // Fig. 13 rows (T1..T5).
  EXPECT_EQ(run.Trace("CL(_)"), "1,5 7 7 7 9 9 7 9 7 9 9 11");
  EXPECT_EQ(run.Trace("CH(a)"), "1,5 6,11 6,11 6,12 10 10 6,12 10 6,12 10 10 9");
  EXPECT_EQ(run.Trace("VC(q0)"), "2 1,5 1,5 2 3 4 2 3 2 3 4 3");
  EXPECT_EQ(run.Trace("CH(b)"), "2 1,5 6,12 8 4 13,10 7 4 8 4 9 3");
  EXPECT_EQ(run.Trace("CH(c)"), "2 1,5 6,12 7 4 13,10 13,8 4 7 4 9 3");
  // §III.10: candidate1 (first <c>, depending on co2) is discarded when
  // {co2,false} arrives; candidate2 (second <c>) is emitted.
  EXPECT_EQ(run.results(), (std::vector<std::string>{"<c></c>"}));
}

TEST(PaperExamplesTest, Fig4ChildTransducersForQueryAC) { ExpectFig4Traces(1); }

TEST(PaperExamplesTest, Fig5ClosureTransducersForQueryAPlusCPlus) {
  ExpectFig5Traces(1);
}

TEST(PaperExamplesTest, Fig13CompleteExample) { ExpectFig13Traces(1); }

// The same figures fed through OnEventBatch.
class PaperTracesBatched : public ::testing::TestWithParam<size_t> {};

TEST_P(PaperTracesBatched, Fig4) { ExpectFig4Traces(GetParam()); }
TEST_P(PaperTracesBatched, Fig5) { ExpectFig5Traces(GetParam()); }
TEST_P(PaperTracesBatched, Fig13) { ExpectFig13Traces(GetParam()); }

INSTANTIATE_TEST_SUITE_P(FeedBatch, PaperTracesBatched,
                         ::testing::Values(size_t{7}, size_t{64}));

TEST(PaperExamplesTest, Fig13CandidateAccounting) {
  TracedRun run("_*.a[b].c", kPaperDoc);
  RunStats stats = run.engine().ComputeStats();
  EXPECT_EQ(stats.output.candidates_created, 2);
  EXPECT_EQ(stats.output.candidates_dropped, 1);
  EXPECT_EQ(stats.output.candidates_emitted, 1);
}

TEST(PaperExamplesTest, Fig12NetworkShape) {
  // The network of Fig. 12: IN, SP, CL(_), JO, CH(a), VC, SP, CH(b),
  // VF(q+), VD, JO, CH(c), OU — 13 transducers.
  ExprPtr q = MustParseRpeq("_*.a[b].c");
  CountingResultSink sink;
  SpexEngine engine(*q, &sink);
  EXPECT_EQ(engine.network().node_count(), 13);
  EXPECT_NE(engine.network().FindByName("VF(q0+)"), nullptr);
  EXPECT_NE(engine.network().FindByName("VD(q0)"), nullptr);
  EXPECT_NE(engine.network().FindByName("OU"), nullptr);
  EXPECT_NE(engine.network().FindByName("IN"), nullptr);
}

TEST(PaperExamplesTest, SectionIIGrammarExample) {
  // §II.2: _*.a[b]._*.c selects c descendants of an a with a b child.
  const char doc[] =
      "<r><a><b/><x><c/></x></a><a><x><c/></x></a><c/></r>";
  std::vector<StreamEvent> events;
  std::string error;
  ASSERT_TRUE(ParseXmlToEvents(doc, &events, &error)) << error;
  ExprPtr q = MustParseRpeq("_*.a[b]._*.c");
  EXPECT_EQ(EvaluateToStrings(*q, events),
            (std::vector<std::string>{"<c></c>"}));
}

}  // namespace
}  // namespace spex
