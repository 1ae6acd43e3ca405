// Unit tests for the split and join transducers (Figs. 8 and 9).

#include "spex/split_join_transducers.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace spex {
namespace {

TEST(SplitTransducerTest, DuplicatesEveryMessageToBothPorts) {
  SplitTransducer sp;
  TestEmitter e;
  Feed(&sp, 0, Open("a"), &e);
  Feed(&sp, 0, Activate(), &e);
  Feed(&sp, 0, Message::Determination(1, true), &e);
  EXPECT_EQ(e.Summary(true),
            "0:<a>;1:<a>;0:[true];1:[true];0:{co0_1,true};1:{co0_1,true}");
}

class JoinTransducerTest : public ::testing::Test {
 protected:
  std::string Send(int port, Message m) {
    e_.Clear();
    Feed(&jo_, port, std::move(m), &e_);
    return e_.Summary();
  }

  JoinTransducer jo_;
  TestEmitter e_;
};

TEST_F(JoinTransducerTest, Rule1DocumentMessagesPairUp) {
  EXPECT_EQ(Send(0, Open("a")), "");  // waits for the right copy
  EXPECT_EQ(jo_.pending(0), 1u);
  EXPECT_EQ(Send(1, Open("a")), "<a>");  // emitted exactly once
  EXPECT_EQ(jo_.pending(0), 0u);
  EXPECT_EQ(jo_.pending(1), 0u);
  EXPECT_EQ(jo_.state(), JoinTransducer::State::kNone);
}

TEST_F(JoinTransducerTest, Rules2And12LeftDocWaitsForRight) {
  Send(0, Open("a"));
  // Right sends an activation first: it passes through; state -> kLeft.
  EXPECT_EQ(Send(1, Activate()), "[true]");
  EXPECT_EQ(jo_.state(), JoinTransducer::State::kLeft);
  // Right's document message finally arrives: emitted once.
  EXPECT_EQ(Send(1, Open("a")), "<a>");
  EXPECT_EQ(jo_.state(), JoinTransducer::State::kNone);
}

TEST_F(JoinTransducerTest, Rules4And15RightDocWaitsForLeft) {
  Send(1, Open("a"));
  EXPECT_EQ(Send(0, Activate()), "[true]");
  EXPECT_EQ(jo_.state(), JoinTransducer::State::kRight);
  EXPECT_EQ(Send(0, Message::Determination(2, false)), "{co0_2,false}");
  EXPECT_EQ(Send(0, Open("a")), "<a>");
  EXPECT_EQ(jo_.state(), JoinTransducer::State::kNone);
}

TEST_F(JoinTransducerTest, Rule8TwoActivationsPassInOrder) {
  Send(0, Activate(Formula::Var(1)));
  EXPECT_EQ(Send(1, Activate(Formula::Var(2))), "[co0_1];[co0_2]");
}

TEST_F(JoinTransducerTest, Rules6And7ActivationBeforeDetermination) {
  // Fig. 9 normalizes the output order: activation first.
  Send(0, Activate(Formula::Var(1)));
  EXPECT_EQ(Send(1, Message::Determination(2, true)),
            "[co0_1];{co0_2,true}");
  // Mirror case.
  Send(0, Message::Determination(3, false));
  EXPECT_EQ(Send(1, Activate(Formula::Var(4))), "[co0_4];{co0_3,false}");
}

TEST_F(JoinTransducerTest, Rule9TwoDeterminations) {
  Send(0, Message::Determination(1, true));
  EXPECT_EQ(Send(1, Message::Determination(2, false)),
            "{co0_1,true};{co0_2,false}");
}

TEST_F(JoinTransducerTest, FullRoundWithMixedTraffic) {
  // left:  [f];<a>        (a matcher branch that matched)
  // right: {c,true};<a>   (a determinant branch)
  EXPECT_EQ(Send(0, Activate(Formula::Var(7))), "");
  EXPECT_EQ(Send(1, Message::Determination(9, true)),
            "[co0_7];{co0_9,true}");
  Send(0, Open("a"));
  EXPECT_EQ(Send(1, Open("a")), "<a>");
}

TEST_F(JoinTransducerTest, SequenceOfRoundsStaysSynchronized) {
  for (int i = 0; i < 50; ++i) {
    std::string label = "e" + std::to_string(i % 3);
    Send(0, Open(label));
    EXPECT_EQ(Send(1, Open(label)), "<" + label + ">");
    Send(1, Close(label));
    EXPECT_EQ(Send(0, Close(label)), "</" + label + ">");
    EXPECT_EQ(jo_.pending(0), 0u);
    EXPECT_EQ(jo_.pending(1), 0u);
  }
}

TEST_F(JoinTransducerTest, TextMessagesPairLikeDocumentMessages) {
  Send(0, Message::Document(StreamEvent::Text("x")));
  EXPECT_EQ(Send(1, Message::Document(StreamEvent::Text("x"))), "\"x\"");
}

}  // namespace
}  // namespace spex
