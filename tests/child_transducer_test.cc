// White-box unit tests of the child transducer against the transition table
// of Fig. 2, rule by rule.

#include "spex/child_transducer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace spex {
namespace {

class ChildTransducerTest : public ::testing::Test {
 protected:
  ChildTransducerTest() : t_("a", false, &context_) { t_.set_trace(&trace_); }

  // Sends a message; returns what was emitted for it.
  std::string Step(Message m) {
    emitter_.Clear();
    Feed(&t_, std::move(m), &emitter_);
    return emitter_.Summary();
  }
  int LastRule() const { return trace_.pending.empty() && !trace_.groups.empty()
                                    ? trace_.groups.back().back()
                                    : trace_.pending.back(); }

  RunContext context_;
  ChildTransducer t_;
  TestEmitter emitter_;
  TransducerTrace trace_;
};

TEST_F(ChildTransducerTest, Rule1ActivationWhileWaiting) {
  EXPECT_EQ(Step(Activate()), "");  // activation consumed, nothing emitted
  EXPECT_EQ(t_.state(), ChildTransducer::State::kActivated1);
  EXPECT_EQ(t_.condition_stack_size(), 1u);
  EXPECT_EQ(LastRule(), 1);
}

TEST_F(ChildTransducerTest, Rules2And3PlainDescentWhileWaiting) {
  EXPECT_EQ(Step(Open("x")), "<x>");
  EXPECT_EQ(t_.depth_stack_size(), 1u);
  EXPECT_EQ(LastRule(), 2);
  EXPECT_EQ(Step(Close("x")), "</x>");
  EXPECT_EQ(t_.depth_stack_size(), 0u);
  EXPECT_EQ(LastRule(), 3);
}

TEST_F(ChildTransducerTest, Rule5ActivatingMessageEntersMatching) {
  Step(Activate());
  EXPECT_EQ(Step(Open("r")), "<r>");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kMatching);
  EXPECT_EQ(LastRule(), 5);
}

TEST_F(ChildTransducerTest, Rule7MatchEmitsActivationBeforeMessage) {
  Step(Activate());
  Step(Open("r"));
  // A child labeled a matches: [true];<a> is emitted, state -> waiting.
  EXPECT_EQ(Step(Open("a")), "[true];<a>");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kWaiting);
  EXPECT_EQ(LastRule(), 7);
}

TEST_F(ChildTransducerTest, Rule8NonMatchingChild) {
  Step(Activate());
  Step(Open("r"));
  EXPECT_EQ(Step(Open("b")), "<b>");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kWaiting);
  EXPECT_EQ(LastRule(), 8);
}

TEST_F(ChildTransducerTest, Rule4ReturningToMatchLevel) {
  Step(Activate());
  Step(Open("r"));
  Step(Open("b"));
  EXPECT_EQ(Step(Close("b")), "</b>");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kMatching);
  EXPECT_EQ(LastRule(), 4);
}

TEST_F(ChildTransducerTest, Rule9ClosingActivatingElementPopsFormula) {
  Step(Activate());
  Step(Open("r"));
  EXPECT_EQ(t_.condition_stack_size(), 1u);
  EXPECT_EQ(Step(Close("r")), "</r>");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kWaiting);
  EXPECT_EQ(t_.condition_stack_size(), 0u);
  EXPECT_EQ(LastRule(), 9);
}

TEST_F(ChildTransducerTest, Rule6And11NestedActivationMatching) {
  Step(Activate());
  Step(Open("r"));
  // Nested activation with formula co0_0 while matching.
  Step(Activate(Formula::Var(MakeVarId(0, 0))));
  EXPECT_EQ(t_.state(), ChildTransducer::State::kActivated2);
  EXPECT_EQ(LastRule(), 6);
  // The activating message is itself an a: matched against the ENCLOSING
  // scope's formula (true), and a nested scope opens.
  EXPECT_EQ(Step(Open("a")), "[true];<a>");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kMatching);
  EXPECT_EQ(LastRule(), 11);
  // Children of the nested activating element now match with co0_0.
  EXPECT_EQ(Step(Open("a")), "[co0_0];<a>");
}

TEST_F(ChildTransducerTest, Rule12NestedActivationNonMatching) {
  Step(Activate());
  Step(Open("r"));
  Step(Activate(Formula::Var(MakeVarId(0, 0))));
  EXPECT_EQ(Step(Open("x")), "<x>");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kMatching);
  EXPECT_EQ(LastRule(), 12);
  // Rule 10: closing the nested scope pops both stacks, stays matching.
  EXPECT_EQ(Step(Close("x")), "</x>");
  EXPECT_EQ(LastRule(), 10);
  EXPECT_EQ(t_.state(), ChildTransducer::State::kMatching);
  EXPECT_EQ(t_.condition_stack_size(), 1u);
}

TEST_F(ChildTransducerTest, Rule13DeterminationUpdatesStoredFormulas) {
  VarId v = MakeVarId(0, 0);
  Step(Activate(Formula::Var(v)));
  Step(Open("r"));
  context_.assignment.Set(v, false);
  EXPECT_EQ(Step(Message::Determination(v, false)), "{co0_0,false}");
  EXPECT_EQ(LastRule(), 13);
  // The stored formula was pruned to false: a match now carries [false].
  EXPECT_EQ(Step(Open("a")), "[false];<a>");
}

TEST_F(ChildTransducerTest, Rule101DoubleActivationMergesWithOr) {
  Step(Activate(Formula::Var(MakeVarId(0, 0))));
  Step(Activate(Formula::Var(MakeVarId(0, 1))));
  EXPECT_EQ(t_.condition_stack_size(), 1u);
  Step(Open("r"));
  EXPECT_EQ(Step(Open("a")), "[co0_0|co0_1];<a>");
}

TEST_F(ChildTransducerTest, TextForwardsUntouched) {
  Step(Activate());
  Step(Open("r"));
  EXPECT_EQ(Step(Message::Document(StreamEvent::Text("hi"))), "\"hi\"");
  EXPECT_EQ(t_.state(), ChildTransducer::State::kMatching);
  EXPECT_EQ(t_.depth_stack_size(), 1u);  // text opens no level
}

TEST_F(ChildTransducerTest, WildcardMatchesAnyElementButNotRoot) {
  RunContext context;
  ChildTransducer w("_", true, &context);
  TestEmitter e;
  Feed(&w, Activate(), &e);
  Feed(&w, OpenDoc(), &e);  // <$> is the activating message
  e.Clear();
  Feed(&w, Open("zzz"), &e);
  EXPECT_EQ(e.Summary(), "[true];<zzz>");
}

TEST_F(ChildTransducerTest, StartDocumentIsNeverMatchedByLabel) {
  // CH($-like) can only be *activated by* <$>, never match it.
  Step(Activate());
  Step(Open("r"));
  // A nested <$> cannot occur in well-formed streams; instead check that a
  // matching scope does not match a start-document message at match level.
  RunContext context;
  ChildTransducer t("a", false, &context);
  TestEmitter e;
  Feed(&t, Activate(), &e);
  e.Clear();
  Feed(&t, OpenDoc(), &e);
  EXPECT_EQ(e.Summary(), "<$>");  // rule 5, no self-match
}

TEST_F(ChildTransducerTest, StatsTrackStackPeaks) {
  Step(Activate());
  Step(Open("r"));
  Step(Open("x"));
  Step(Open("y"));
  EXPECT_EQ(t_.stats().depth_stack_peak, 3);
  EXPECT_GE(t_.stats().messages_in, 4);
  EXPECT_GE(t_.stats().messages_out, 3);
}

}  // namespace
}  // namespace spex
