// White-box unit tests of the closure transducer against the transition
// table of Fig. 3.

#include "spex/closure_transducer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace spex {
namespace {

class ClosureTransducerTest : public ::testing::Test {
 protected:
  ClosureTransducerTest() : t_("a", false, &context_) {
    t_.set_trace(&trace_);
  }

  std::string Step(Message m) {
    emitter_.Clear();
    Feed(&t_, std::move(m), &emitter_);
    return emitter_.Summary();
  }
  int LastRule() const {
    return trace_.pending.empty() ? trace_.groups.back().back()
                                  : trace_.pending.back();
  }

  RunContext context_;
  ClosureTransducer t_;
  TestEmitter emitter_;
  TransducerTrace trace_;
};

TEST_F(ClosureTransducerTest, Rule5ActivationOpensScopeStart) {
  EXPECT_EQ(Step(Activate()), "");
  EXPECT_EQ(LastRule(), 1);
  EXPECT_EQ(Step(Open("r")), "<r>");
  EXPECT_EQ(LastRule(), 5);
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kMatching);
}

TEST_F(ClosureTransducerTest, Rule7MatchContinuesChainDownward) {
  Step(Activate());
  Step(Open("r"));
  // Matching an a keeps the transducer matching: nested a's also match.
  EXPECT_EQ(Step(Open("a")), "[true];<a>");
  EXPECT_EQ(LastRule(), 7);
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kMatching);
  EXPECT_EQ(Step(Open("a")), "[true];<a>");  // chain continues
}

TEST_F(ClosureTransducerTest, Rules8And4InterruptedScope) {
  Step(Activate());
  Step(Open("r"));
  // A non-matching element suspends the scope until it closes.
  EXPECT_EQ(Step(Open("x")), "<x>");
  EXPECT_EQ(LastRule(), 8);
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kWaiting);
  // Elements below the interruption are skipped with rules 2/3.
  Step(Open("a"));
  EXPECT_EQ(LastRule(), 2);  // *not* matched: a below x is not on a chain
  Step(Close("a"));
  EXPECT_EQ(LastRule(), 3);
  EXPECT_EQ(Step(Close("x")), "</x>");
  EXPECT_EQ(LastRule(), 4);
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kMatching);
}

TEST_F(ClosureTransducerTest, Rule9MatchedElementCloses) {
  Step(Activate());
  Step(Open("r"));
  Step(Open("a"));
  EXPECT_EQ(Step(Close("a")), "</a>");
  EXPECT_EQ(LastRule(), 9);
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kMatching);
}

TEST_F(ClosureTransducerTest, Rule11OutermostScopeCloses) {
  Step(Activate());
  Step(Open("r"));
  EXPECT_EQ(t_.condition_stack_size(), 1u);
  EXPECT_EQ(Step(Close("r")), "</r>");
  EXPECT_EQ(LastRule(), 11);
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kWaiting);
  EXPECT_EQ(t_.condition_stack_size(), 0u);
}

TEST_F(ClosureTransducerTest, Rule12NestedScopeBuildsDisjunction) {
  Step(Activate());                                  // scope f2 = true? no:
  Step(Open("r"));                                   // use a variable below
  RunContext context;
  ClosureTransducer t("a", false, &context);
  TestEmitter e;
  VarId f2 = MakeVarId(0, 2);
  VarId f1 = MakeVarId(0, 1);
  Feed(&t, Activate(Formula::Var(f2)), &e);
  Feed(&t, Open("r"), &e);
  Feed(&t, Activate(Formula::Var(f1)), &e);  // rule 6 -> activated2
  EXPECT_EQ(t.state(), ClosureTransducer::State::kActivated2);
  e.Clear();
  // The element matches: emitted with the ENCLOSING formula f2; the nested
  // scope's formula becomes f1 OR f2 (Fig. 3 rule 12).
  Feed(&t, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "[co0_2];<a>");
  e.Clear();
  // A further a matches under the disjunction.
  Feed(&t, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "[co0_1|co0_2];<a>");
  // Rule 10: closing the nested scope pops it and stays matching.
  e.Clear();
  Feed(&t, Close("a"), &e);  // rule 9 (the inner match)
  Feed(&t, Close("a"), &e);  // rule 10 (the nested scope element)
  EXPECT_EQ(t.state(), ClosureTransducer::State::kMatching);
  e.Clear();
  Feed(&t, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "[co0_2];<a>");  // back to the outer scope formula
}

TEST_F(ClosureTransducerTest, Rule13NestedActivationNonMatching) {
  Step(Activate());
  Step(Open("r"));
  Step(Activate(Formula::Var(MakeVarId(0, 5))));
  EXPECT_EQ(Step(Open("x")), "<x>");
  EXPECT_EQ(LastRule(), 13);
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kMatching);
  // Children of x match against the nested activation's formula.
  EXPECT_EQ(Step(Open("a")), "[co0_5];<a>");
}

TEST_F(ClosureTransducerTest, Rule14DeterminationPrunesFalse) {
  VarId v = MakeVarId(0, 0);
  Step(Activate(Formula::Var(v)));
  Step(Open("r"));
  context_.assignment.Set(v, false);
  EXPECT_EQ(Step(Message::Determination(v, false)), "{co0_0,false}");
  EXPECT_EQ(LastRule(), 14);
  EXPECT_EQ(Step(Open("a")), "[false];<a>");
}

TEST_F(ClosureTransducerTest, MultipleIndependentScopesAfterReopen) {
  Step(Activate());
  Step(Open("r"));
  Step(Close("r"));  // rule 11, scope closed
  EXPECT_EQ(t_.state(), ClosureTransducer::State::kWaiting);
  // A second activation reuses the transducer cleanly.
  Step(Activate());
  Step(Open("s"));
  EXPECT_EQ(Step(Open("a")), "[true];<a>");
}

TEST_F(ClosureTransducerTest, WildcardClosureMatchesEverything) {
  RunContext context;
  ClosureTransducer w("_", true, &context);
  TestEmitter e;
  Feed(&w, Activate(), &e);
  Feed(&w, OpenDoc(), &e);
  e.Clear();
  Feed(&w, Open("x"), &e);
  EXPECT_EQ(e.Summary(), "[true];<x>");
  e.Clear();
  Feed(&w, Open("y"), &e);
  EXPECT_EQ(e.Summary(), "[true];<y>");
}

TEST_F(ClosureTransducerTest, DepthStackPeakBoundedByDepth) {
  Step(Activate());
  Step(Open("r"));
  for (int i = 0; i < 10; ++i) Step(Open("a"));
  EXPECT_EQ(t_.stats().depth_stack_peak, 11);
  for (int i = 0; i < 10; ++i) Step(Close("a"));
  Step(Close("r"));
  EXPECT_EQ(t_.depth_stack_size(), 0u);
}

}  // namespace
}  // namespace spex
