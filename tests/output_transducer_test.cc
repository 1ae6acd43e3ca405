// Unit tests of the output transducer (paper §III.8): candidate creation,
// ordered emission, progressive streaming, buffering accounting and flush.

#include "spex/output_transducer.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "rpeq/parser.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace spex {
namespace {

class OutputTransducerTest : public ::testing::Test {
 protected:
  OutputTransducerTest() : ou_(&collector_, &context_) {}

  void Send(Message m) { Feed(&ou_, std::move(m), &emitter_); }

  RunContext context_;
  CollectingResultSink collector_;
  TestEmitter emitter_;
  OutputTransducer ou_;
};

TEST_F(OutputTransducerTest, UnconditionalCandidateStreamsImmediately) {
  Send(OpenDoc());
  Send(Activate());
  Send(Open("a"));
  Send(Message::Document(StreamEvent::Text("x")));
  // The result is already streaming before the element even closes.
  ASSERT_EQ(collector_.results().size(), 1u);
  EXPECT_EQ(collector_.results()[0].size(), 2u);
  EXPECT_EQ(ou_.output_stats().buffered_events_peak, 0);
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();
  EXPECT_EQ(ou_.result_count(), 1);
  EXPECT_EQ(collector_.results()[0].size(), 3u);
}

TEST_F(OutputTransducerTest, FutureConditionBuffersUntilDetermined) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  EXPECT_TRUE(collector_.results().empty());  // undetermined: buffered
  EXPECT_EQ(ou_.output_stats().buffered_events_peak, 2);
  context_.assignment.Set(c, true);
  Send(Message::Determination(c, true));
  ASSERT_EQ(collector_.results().size(), 1u);
  EXPECT_EQ(collector_.results()[0].size(), 2u);
  EXPECT_EQ(ou_.result_count(), 1);
}

TEST_F(OutputTransducerTest, FalseConditionDropsCandidate) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  context_.assignment.Set(c, false);
  Send(Message::Determination(c, false));
  EXPECT_TRUE(collector_.results().empty());
  EXPECT_EQ(ou_.output_stats().candidates_dropped, 1);
}

TEST_F(OutputTransducerTest, DocumentOrderIsPreservedAcrossDeterminations) {
  // Candidate 1 (conditional) precedes candidate 2 (unconditional); 2 must
  // wait for 1 even though it is decided first.
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  Send(Activate());
  Send(Open("b"));
  Send(Close("b"));
  EXPECT_TRUE(collector_.results().empty());  // 2 blocked behind 1
  context_.assignment.Set(c, true);
  Send(Message::Determination(c, true));
  ASSERT_EQ(collector_.results().size(), 2u);
  EXPECT_EQ(collector_.results()[0][0], StreamEvent::StartElement("a"));
  EXPECT_EQ(collector_.results()[1][0], StreamEvent::StartElement("b"));
}

TEST_F(OutputTransducerTest, DroppedFrontUnblocksLaterCandidates) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  Send(Activate());
  Send(Open("b"));
  Send(Close("b"));
  context_.assignment.Set(c, false);
  Send(Message::Determination(c, false));
  ASSERT_EQ(collector_.results().size(), 1u);
  EXPECT_EQ(collector_.results()[0][0], StreamEvent::StartElement("b"));
}

TEST_F(OutputTransducerTest, NestedCandidatesBothEmitted) {
  Send(OpenDoc());
  Send(Activate());
  Send(Open("a"));
  Send(Activate());
  Send(Open("b"));
  Send(Close("b"));
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();
  ASSERT_EQ(collector_.results().size(), 2u);
  EXPECT_EQ(collector_.results()[0].size(), 4u);  // <a><b></b></a>
  EXPECT_EQ(collector_.results()[1].size(), 2u);  // <b></b>
}

TEST_F(OutputTransducerTest, RootActivationIsDiscarded) {
  // An activation right before <$> selects the document root, which is not
  // an element and therefore not a result.
  Send(Activate());
  Send(OpenDoc());
  Send(Open("a"));
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();
  EXPECT_TRUE(collector_.results().empty());
  EXPECT_EQ(ou_.output_stats().candidates_created, 0);
}

TEST_F(OutputTransducerTest, DoubleActivationMergesWithOr) {
  VarId c1 = MakeVarId(0, 0);
  VarId c2 = MakeVarId(0, 1);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c1)));
  Send(Activate(Formula::Var(c2)));
  Send(Open("a"));
  Send(Close("a"));
  context_.assignment.Set(c1, false);
  Send(Message::Determination(c1, false));
  EXPECT_TRUE(collector_.results().empty());  // still possible via c2
  context_.assignment.Set(c2, true);
  Send(Message::Determination(c2, true));
  EXPECT_EQ(collector_.results().size(), 1u);
}

TEST_F(OutputTransducerTest, FlushDecidesLeftoversClosedWorld) {
  VarId c = MakeVarId(0, 0);
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  Send(CloseDoc());
  ou_.Flush();  // c never determined: closed-world => false
  EXPECT_TRUE(collector_.results().empty());
  EXPECT_EQ(ou_.output_stats().candidates_dropped, 1);
}

TEST_F(OutputTransducerTest, StreamedEventsCountedSeparately) {
  Send(OpenDoc());
  Send(Activate());
  Send(Open("a"));
  for (int i = 0; i < 5; ++i) {
    Send(Open("x"));
    Send(Close("x"));
  }
  Send(Close("a"));
  const OutputStats& stats = ou_.output_stats();
  EXPECT_EQ(stats.streamed_events, 12);
  EXPECT_EQ(stats.buffered_events_peak, 0);
}

TEST_F(OutputTransducerTest, PastConditionCandidateNeverBuffers) {
  VarId c = MakeVarId(0, 0);
  context_.assignment.Set(c, true);  // determined before the candidate opens
  Send(OpenDoc());
  Send(Activate(Formula::Var(c)));
  Send(Open("a"));
  Send(Close("a"));
  EXPECT_EQ(ou_.output_stats().buffered_events_peak, 0);
  EXPECT_EQ(collector_.results().size(), 1u);
}

// Forwards every sink call to several sinks.
class TeeSink : public ResultSink {
 public:
  explicit TeeSink(std::vector<ResultSink*> sinks) : sinks_(std::move(sinks)) {}
  void OnResultBegin(int64_t id) override {
    for (ResultSink* s : sinks_) s->OnResultBegin(id);
  }
  void OnResultEvent(const StreamEvent& event) override {
    for (ResultSink* s : sinks_) s->OnResultEvent(event);
  }
  void OnReplayedResultEvent(int64_t id, const StreamEvent& event) override {
    for (ResultSink* s : sinks_) s->OnReplayedResultEvent(id, event);
  }
  void OnResultEnd(int64_t id) override {
    for (ResultSink* s : sinks_) s->OnResultEnd(id);
  }

 private:
  std::vector<ResultSink*> sinks_;
};

// The incremental SerializingResultSink is byte-identical to serializing
// the collected events of each fragment, and TakeFinished (called after
// every event) hands out exactly those fragments in Begin order: §VI
// generators, nested queries, both output orders, attribute folding.
TEST(SerializingResultSinkTest, IncrementalMatchesCollectedEvents) {
  struct Case {
    std::string name;
    std::vector<StreamEvent> events;
    std::vector<std::string> queries;
  };
  std::vector<Case> cases;
  cases.push_back({"mondial", GenerateToVector([](EventSink* sink) {
                     GenerateMondialLike(7, 0.02, sink);
                   }),
                   {"_*.country[province].name", "_*._", "_*.province._*"}});
  cases.push_back({"wordnet", GenerateToVector([](EventSink* sink) {
                     GenerateWordnetLike(7, 0.002, sink);
                   }),
                   {"_*.Noun[wordForm].gloss", "_*._", "_*.Noun._*"}});
  cases.push_back({"dmoz", GenerateToVector([](EventSink* sink) {
                     GenerateDmozLike(7, 0.0005, true, sink);
                   }),
                   {"_*.Topic[link].Title", "_*._", "_*.Topic._*"}});
  {
    XmlParserOptions attrs;
    attrs.expose_attributes = true;
    std::vector<StreamEvent> events;
    ASSERT_TRUE(ParseXmlToEvents(
                    "<a id=\"1\"><a x=\"&lt;2\"><b k=\"v\">t</b></a>"
                    "<b><a id=\"3\"/></b></a>",
                    &events, attrs)
                    .ok());
    cases.push_back({"attributes", events, {"_*._", "_*.a._*", "_*.a[b]"}});
  }

  for (const Case& c : cases) {
    for (const std::string& q : c.queries) {
      for (OutputOrder order :
           {OutputOrder::kDocumentStart, OutputOrder::kDetermination}) {
        SCOPED_TRACE(c.name + " " + q);
        CollectingResultSink collected;
        SerializingResultSink serialized;
        SerializingResultSink taken_sink;
        TeeSink tee({&collected, &serialized, &taken_sink});
        EngineOptions options;
        options.output_order = order;
        SpexEngine engine(*MustParseRpeq(q), &tee, options);
        std::vector<std::string> taken;
        for (const StreamEvent& e : c.events) {
          engine.OnEvent(e);
          taken_sink.TakeFinished(&taken);
        }
        ASSERT_TRUE(engine.status().ok());
        std::vector<std::string> expected;
        for (const auto& fragment : collected.results()) {
          expected.push_back(EventsToXml(fragment));
        }
        EXPECT_FALSE(expected.empty());
        EXPECT_EQ(serialized.results(), expected);
        EXPECT_EQ(taken, expected);
        EXPECT_TRUE(taken_sink.results().empty());
      }
    }
  }
}

}  // namespace
}  // namespace spex
