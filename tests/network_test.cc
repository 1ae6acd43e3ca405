// Unit tests of the network plumbing: tape wiring, delivery, description,
// DOT export, and the remaining small transducers (IN, UN, IS).

#include "spex/network.h"

#include <gtest/gtest.h>

#include "rpeq/parser.h"
#include "spex/engine.h"
#include "spex/input_transducer.h"
#include "spex/intersect_transducer.h"
#include "spex/union_transducer.h"
#include "test_util.h"

namespace spex {
namespace {

// A pass-through transducer that records what it saw.
class ProbeTransducer : public Transducer {
 public:
  ProbeTransducer() : Transducer("PROBE") {}
  void Sweep(Documents docs, Controls in0, Controls,
             BatchEmitter* out) override {
    WalkRounds(
        docs, in0, out,
        [&](Message& m) {
          seen.push_back(m.ToString());
          EmitTo(out, 0, std::move(m));
        },
        [&](const Message& d) { seen.push_back(d.ToString()); });
  }
  std::vector<std::string> seen;
};

TEST(NetworkTest, DeliveryFollowsTapes) {
  Network net;
  auto probe1 = std::make_unique<ProbeTransducer>();
  auto probe2 = std::make_unique<ProbeTransducer>();
  ProbeTransducer* p1 = probe1.get();
  ProbeTransducer* p2 = probe2.get();
  int n1 = net.AddNode(std::move(probe1));
  int n2 = net.AddNode(std::move(probe2));
  int t = net.NewTape();
  net.SetProducer(t, n1, 0);
  net.SetConsumer(t, n2, 0);
  DeliverOne(&net, n1, 0, Open("a"));
  EXPECT_EQ(p1->seen, (std::vector<std::string>{"<a>"}));
  EXPECT_EQ(p2->seen, (std::vector<std::string>{"<a>"}));
  // A control message travels on the tape p1 writes.
  DeliverOne(&net, n1, 0, Activate());
  DeliverOne(&net, n1, 0, Close("a"));
  EXPECT_EQ(p2->seen,
            (std::vector<std::string>{"<a>", "[true]", "</a>"}));
}

TEST(NetworkTest, DanglingOutputIsDropped) {
  Network net;
  auto probe = std::make_unique<ProbeTransducer>();
  int n = net.AddNode(std::move(probe));
  // No output tape: emitting must be a safe no-op.
  DeliverOne(&net, n, 0, Open("a"));
  SUCCEED();
}

TEST(NetworkTest, NetworkSurvivesMove) {
  // The engine moves networks around; emitters must not hold stale
  // back-pointers (regression test for an early segfault).
  Network net;
  auto probe1 = std::make_unique<ProbeTransducer>();
  auto probe2 = std::make_unique<ProbeTransducer>();
  ProbeTransducer* p2 = probe2.get();
  int n1 = net.AddNode(std::move(probe1));
  int n2 = net.AddNode(std::move(probe2));
  int t = net.NewTape();
  net.SetProducer(t, n1, 0);
  net.SetConsumer(t, n2, 0);
  Network moved = std::move(net);
  DeliverOne(&moved, 0, 0, Open("x"));
  EXPECT_EQ(p2->seen.size(), 1u);
}

TEST(NetworkTest, FindByName) {
  ExprPtr q = MustParseRpeq("a[b]");
  CountingResultSink sink;
  SpexEngine engine(*q, &sink);
  EXPECT_NE(engine.network().FindByName("VC(q0)"), nullptr);
  EXPECT_EQ(engine.network().FindByName("nope"), nullptr);
}

TEST(NetworkTest, ToDotContainsNodesAndEdges) {
  ExprPtr q = MustParseRpeq("a.b");
  CountingResultSink sink;
  SpexEngine engine(*q, &sink);
  std::string dot = engine.network().ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("CH(a)"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(NetworkTest, ToDotIsStructurallyWellFormed) {
  ExprPtr q = MustParseRpeq("_*.a[b].c");
  CountingResultSink sink;
  SpexEngine engine(*q, &sink);
  std::string error;
  EXPECT_TRUE(CheckDotStructure(engine.network().ToDot(), &error)) << error;
}

TEST(NetworkTest, ToDotEscapesLabelCharacters) {
  // A transducer whose name carries every character that can break a
  // quoted DOT attribute: an embedded quote, a backslash and a newline.
  class HostileName : public Transducer {
   public:
    HostileName() : Transducer("CH(a\"b\\c\nd)") {}
    void Sweep(Documents, Controls, Controls, BatchEmitter*) override {}
  };
  Network net;
  int n1 = net.AddNode(std::make_unique<HostileName>());
  int n2 = net.AddNode(std::make_unique<ProbeTransducer>());
  int t = net.NewTape();
  net.SetProducer(t, n1, 0);
  net.SetConsumer(t, n2, 0);
  const std::string dot = net.ToDot();
  std::string error;
  EXPECT_TRUE(CheckDotStructure(dot, &error)) << error << "\n" << dot;
  EXPECT_NE(dot.find("\\\""), std::string::npos) << dot;  // quote escaped
  EXPECT_NE(dot.find("\\\\"), std::string::npos) << dot;  // backslash escaped
}

TEST(InputTransducerTest, ActivatesOnceOnStartDocument) {
  InputTransducer in;
  TestEmitter e;
  Feed(&in, OpenDoc(), &e);
  EXPECT_EQ(e.Summary(), "[true];<$>");
  e.Clear();
  Feed(&in, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "<a>");  // no further activation
  e.Clear();
  Feed(&in, CloseDoc(), &e);
  EXPECT_EQ(e.Summary(), "</$>");
}

TEST(UnionTransducerTest, MergesTwoActivations) {
  UnionTransducer un;
  TestEmitter e;
  Feed(&un, Activate(Formula::Var(1)), &e);
  EXPECT_EQ(e.Summary(), "");  // stored (Fig. 10 rule 1)
  Feed(&un, Activate(Formula::Var(2)), &e);
  EXPECT_EQ(e.Summary(), "[co0_1|co0_2]");  // rule 2
  e.Clear();
  Feed(&un, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "<a>");  // no pending activation any more
}

TEST(UnionTransducerTest, ForwardsSingleActivationBeforeItsMessage) {
  UnionTransducer un;
  TestEmitter e;
  Feed(&un, Activate(Formula::Var(7)), &e);
  Feed(&un, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "[co0_7];<a>");  // rule 3
}

TEST(UnionTransducerTest, ForwardsDeterminations) {
  UnionTransducer un;
  TestEmitter e;
  Feed(&un, Activate(Formula::Var(7)), &e);
  Feed(&un, Message::Determination(9, true), &e);
  EXPECT_EQ(e.Summary(), "{co0_9,true}");  // rule 4, store intact
  e.Clear();
  Feed(&un, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "[co0_7];<a>");
}

TEST(IntersectTransducerTest, EmitsConjunctionOnlyWhenBothActivate) {
  IntersectTransducer is;
  TransducerTrace trace;
  is.set_trace(&trace);
  TestEmitter e;
  // Round 1: both sides activate <a>.  Round 2: only the left side
  // activates: plain forward.
  FeedPair(&is, {Activate(Formula::Var(1)), Open("a"),
                 Activate(Formula::Var(3)), Close("a")},
           {Activate(Formula::Var(2)), Open("a"), Close("a")}, &e);
  EXPECT_EQ(e.Summary(), "[co0_1&co0_2];<a>;</a>");
  EXPECT_EQ(trace.ToString(), "1 3");  // one group per round
}

TEST(IntersectTransducerTest, DeterminationsPassThrough) {
  IntersectTransducer is;
  TestEmitter e;
  FeedPair(&is, {Message::Determination(5, true), Open("a")}, {Open("a")},
           &e);
  EXPECT_EQ(e.Summary(), "{co0_5,true};<a>");
}

TEST(MessageTest, ToStringNotation) {
  EXPECT_EQ(Open("a").ToString(), "<a>");
  EXPECT_EQ(Activate().ToString(), "[true]");
  EXPECT_EQ(Activate(Formula::Var(MakeVarId(2, 7))).ToString(), "[co2_7]");
  EXPECT_EQ(Message::Determination(MakeVarId(1, 2), false).ToString(),
            "{co1_2,false}");
  EXPECT_TRUE(Open("a").is_open());
  EXPECT_TRUE(Close("a").is_close());
  EXPECT_TRUE(OpenDoc().is_open());
  EXPECT_TRUE(Message::Document(StreamEvent::Text("t")).is_text());
}

TEST(TransducerTraceTest, GroupsAndRendering) {
  TransducerTrace t;
  t.Fire(1);
  t.Fire(5);
  t.EndGroup();
  t.Fire(7);
  t.EndGroup();
  t.EndGroup();  // empty group renders as '-'
  EXPECT_EQ(t.ToString(), "1,5 7 -");
}

}  // namespace
}  // namespace spex
