// Unit tests for the qualifier transducers: variable creator (Fig. 6),
// variable filter, and variable determinant (Fig. 7) including the
// conditional determination used for nested qualifiers.

#include "spex/qualifier_transducers.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace spex {
namespace {

TEST(VariableCreatorTest, CreatesInstancePerActivation) {
  RunContext context;
  VariableCreatorTransducer vc(0, &context);
  TestEmitter e;
  Feed(&vc, Activate(), &e);
  EXPECT_EQ(e.Summary(), "[co0_0]");  // true AND co0_0 folds to co0_0
  Feed(&vc, Open("a"), &e);     // rule 5: scope opens
  e.Clear();
  Feed(&vc, Activate(Formula::Var(MakeVarId(9, 9))), &e);
  EXPECT_EQ(e.Summary(), "[co9_9&co0_1]");  // second instance, conjoined
}

TEST(VariableCreatorTest, ScopeExitInvalidatesUnsatisfiedInstance) {
  RunContext context;
  VariableCreatorTransducer vc(0, &context);
  TestEmitter e;
  Feed(&vc, Activate(), &e);
  Feed(&vc, Open("a"), &e);
  e.Clear();
  Feed(&vc, Close("a"), &e);  // rule 4
  EXPECT_EQ(e.Summary(), "{co0_0,false};</a>");
  EXPECT_EQ(context.assignment.Get(MakeVarId(0, 0)), Truth::kFalse);
}

TEST(VariableCreatorTest, ScopeExitSuppressedWhenAlreadySatisfied) {
  // Fig. 13: no {co1,false} is sent at the outer </a> once VD satisfied it.
  RunContext context;
  VariableCreatorTransducer vc(0, &context);
  TestEmitter e;
  Feed(&vc, Activate(), &e);
  Feed(&vc, Open("a"), &e);
  context.assignment.Set(MakeVarId(0, 0), true);  // VD satisfied it
  e.Clear();
  Feed(&vc, Close("a"), &e);
  EXPECT_EQ(e.Summary(), "</a>");
}

TEST(VariableCreatorTest, NestedScopesUseStackDiscipline) {
  RunContext context;
  VariableCreatorTransducer vc(0, &context);
  TestEmitter e;
  Feed(&vc, Activate(), &e);   // co0_0
  Feed(&vc, Open("a"), &e);    // scope 0 opens
  Feed(&vc, Activate(), &e);   // co0_1
  Feed(&vc, Open("b"), &e);    // scope 1 opens (nested)
  Feed(&vc, Open("x"), &e);    // plain level
  e.Clear();
  Feed(&vc, Close("x"), &e);   // rule 3
  EXPECT_EQ(e.Summary(), "</x>");
  e.Clear();
  Feed(&vc, Close("b"), &e);   // rule 4: inner instance dies first
  EXPECT_EQ(e.Summary(), "{co0_1,false};</b>");
  e.Clear();
  Feed(&vc, Close("a"), &e);
  EXPECT_EQ(e.Summary(), "{co0_0,false};</a>");
}

TEST(VariableCreatorTest, ForwardsDeterminations) {
  RunContext context;
  VariableCreatorTransducer vc(0, &context);
  TestEmitter e;
  Feed(&vc, Message::Determination(MakeVarId(1, 1), true), &e);
  EXPECT_EQ(e.Summary(), "{co1_1,true}");
}

TEST(VariableFilterTest, PositiveKeepsOwnAndInnerVariables) {
  RunContext context;
  VariableFilterTransducer vf(1, /*positive=*/true, &context);
  TestEmitter e;
  // outer co0_0 AND own co1_0 AND inner co2_0.
  Formula f = Formula::And(
      Formula::Var(MakeVarId(0, 0)),
      Formula::And(Formula::Var(MakeVarId(1, 0)), Formula::Var(MakeVarId(2, 0))));
  Feed(&vf, Message::Activation(f), &e);
  EXPECT_EQ(e.Summary(), "[co1_0&co2_0]");  // outer erased, inner kept
}

TEST(VariableFilterTest, PositiveDropsActivationsWithoutOwnVariable) {
  RunContext context;
  VariableFilterTransducer vf(1, true, &context);
  TestEmitter e;
  Feed(&vf, Message::Activation(Formula::Var(MakeVarId(0, 0))), &e);
  EXPECT_EQ(e.Summary(), "");
  Feed(&vf, Message::Activation(Formula::True()), &e);
  EXPECT_EQ(e.Summary(), "");
}

TEST(VariableFilterTest, NegativeErasesOwnVariables) {
  RunContext context;
  VariableFilterTransducer vf(1, /*positive=*/false, &context);
  TestEmitter e;
  Formula f = Formula::And(Formula::Var(MakeVarId(0, 0)),
                           Formula::Var(MakeVarId(1, 0)));
  Feed(&vf, Message::Activation(f), &e);
  EXPECT_EQ(e.Summary(), "[co0_0]");
}

TEST(VariableFilterTest, ForwardsDocumentsAndDeterminations) {
  RunContext context;
  VariableFilterTransducer vf(0, true, &context);
  TestEmitter e;
  Feed(&vf, Open("a"), &e);
  Feed(&vf, Message::Determination(MakeVarId(0, 0), false), &e);
  EXPECT_EQ(e.Summary(), "<a>;{co0_0,false}");
}

TEST(VariableDeterminantTest, UnconditionalInstanceIsSatisfiedImmediately) {
  RunContext context;
  VariableDeterminantTransducer vd(0, &context);
  TestEmitter e;
  Feed(&vd, Message::Activation(Formula::Var(MakeVarId(0, 3))), &e);
  EXPECT_EQ(e.Summary(), "{co0_3,true}");
  EXPECT_EQ(context.assignment.Get(MakeVarId(0, 3)), Truth::kTrue);
  EXPECT_EQ(vd.pending_count(), 0u);
}

TEST(VariableDeterminantTest, DuplicateSatisfactionEmitsOnce) {
  RunContext context;
  VariableDeterminantTransducer vd(0, &context);
  TestEmitter e;
  Feed(&vd, Message::Activation(Formula::Var(MakeVarId(0, 3))), &e);
  Feed(&vd, Message::Activation(Formula::Var(MakeVarId(0, 3))), &e);
  EXPECT_EQ(e.Summary(), "{co0_3,true}");
}

TEST(VariableDeterminantTest, ConditionalInstanceWaitsForInnerVariable) {
  // Body with nested qualifier: the match of instance co0_0 depends on the
  // inner co1_0 (e.g. query a[b[c]]).
  RunContext context;
  VariableDeterminantTransducer vd(0, &context);
  TestEmitter e;
  Formula f = Formula::And(Formula::Var(MakeVarId(0, 0)),
                           Formula::Var(MakeVarId(1, 0)));
  Feed(&vd, Message::Activation(f), &e);
  EXPECT_EQ(e.Summary(), "");  // pending, not satisfied yet
  EXPECT_EQ(vd.pending_count(), 1u);
  // The inner qualifier is satisfied: the pending instance resolves on the
  // next determination passing through.
  context.assignment.Set(MakeVarId(1, 0), true);
  e.Clear();
  Feed(&vd, Message::Determination(MakeVarId(1, 0), true), &e);
  EXPECT_EQ(e.Summary(), "{co0_0,true}");
  EXPECT_EQ(vd.pending_count(), 0u);
}

TEST(VariableDeterminantTest, ConditionalInstanceDroppedWhenInnerFails) {
  RunContext context;
  VariableDeterminantTransducer vd(0, &context);
  TestEmitter e;
  Formula f = Formula::And(Formula::Var(MakeVarId(0, 0)),
                           Formula::Var(MakeVarId(1, 0)));
  Feed(&vd, Message::Activation(f), &e);
  context.assignment.Set(MakeVarId(1, 0), false);
  e.Clear();
  Feed(&vd, Message::Determination(MakeVarId(1, 0), false), &e);
  EXPECT_EQ(e.Summary(), "");  // never satisfied; VC's scope exit decides
  EXPECT_EQ(vd.pending_count(), 0u);
  EXPECT_EQ(context.assignment.Get(MakeVarId(0, 0)), Truth::kUnknown);
}

TEST(VariableDeterminantTest, DisjunctionIsolatesInstances) {
  // (co0_1 & co1_0) | co0_2 : instance co0_2's branch is unconditional,
  // instance co0_1 depends on co1_0.
  RunContext context;
  VariableDeterminantTransducer vd(0, &context);
  TestEmitter e;
  Formula f =
      Formula::Or(Formula::And(Formula::Var(MakeVarId(0, 1)),
                               Formula::Var(MakeVarId(1, 0))),
                  Formula::Var(MakeVarId(0, 2)));
  Feed(&vd, Message::Activation(f), &e);
  EXPECT_EQ(e.Summary(), "{co0_2,true}");
  EXPECT_EQ(vd.pending_count(), 1u);
  EXPECT_EQ(context.assignment.Get(MakeVarId(0, 1)), Truth::kUnknown);
}

TEST(VariableDeterminantTest, DropsIncomingDeterminations) {
  // Fig. 7 rule 2: determinations are consumed, not forwarded.
  RunContext context;
  VariableDeterminantTransducer vd(0, &context);
  TestEmitter e;
  Feed(&vd, Message::Determination(MakeVarId(5, 5), true), &e);
  EXPECT_EQ(e.Summary(), "");
  Feed(&vd, Open("a"), &e);
  EXPECT_EQ(e.Summary(), "<a>");  // documents forward
}

}  // namespace
}  // namespace spex
