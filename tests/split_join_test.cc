// Unit tests for the split and join transducers (Figs. 8 and 9).

#include "spex/split_join_transducers.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace spex {
namespace {

TEST(SplitTransducerTest, DuplicatesEveryMessageToBothPorts) {
  SplitTransducer sp;
  TestEmitter e;
  Feed(&sp, Open("a"), &e);
  Feed(&sp, Activate(), &e);
  Feed(&sp, Message::Determination(1, true), &e);
  EXPECT_EQ(e.Summary(true),
            "0:<a>;1:<a>;0:[true];1:[true];0:{co0_1,true};1:{co0_1,true}");
}

// JO is called once per sweep with both input sequences, which hold the
// same rounds; each test checks the output tape and the Fig. 9 rules fired
// (one trace group per round).
class JoinTransducerTest : public ::testing::Test {
 protected:
  JoinTransducerTest() { jo_.set_trace(&trace_); }

  std::string Send(std::vector<Message> left, std::vector<Message> right) {
    e_.Clear();
    FeedPair(&jo_, std::move(left), std::move(right), &e_);
    return e_.Summary();
  }
  std::string Rules() const { return trace_.ToString(); }

  JoinTransducer jo_;
  TransducerTrace trace_;
  TestEmitter e_;
};

TEST_F(JoinTransducerTest, Rule1DocumentMessagesPairUp) {
  EXPECT_EQ(Send({Open("a")}, {Open("a")}), "<a>");  // emitted exactly once
  EXPECT_EQ(Rules(), "1");
}

TEST_F(JoinTransducerTest, Rules2And12LeftDocWaitsForRight) {
  // Right's activation passes while left's document message waits (2);
  // right's document message is then emitted once (12).
  EXPECT_EQ(Send({Open("a")}, {Activate(), Open("a")}), "[true];<a>");
  EXPECT_EQ(Rules(), "2,12");
}

TEST_F(JoinTransducerTest, Rules4And15RightDocWaitsForLeft) {
  EXPECT_EQ(Send({Activate(), Message::Determination(2, false), Open("a")},
                 {Open("a")}),
            "[true];{co0_2,false};<a>");
  EXPECT_EQ(Rules(), "4,14,15");
}

TEST_F(JoinTransducerTest, Rule8TwoActivationsPassInOrder) {
  EXPECT_EQ(Send({Activate(Formula::Var(1)), Open("a")},
                 {Activate(Formula::Var(2)), Open("a")}),
            "[co0_1];[co0_2];<a>");
  EXPECT_EQ(Rules(), "8,1");
}

TEST_F(JoinTransducerTest, Rules6And7ActivationBeforeDetermination) {
  // Fig. 9 normalizes the output order: activation first, in both mirror
  // cases (one round each).
  EXPECT_EQ(Send({Activate(Formula::Var(1)), Open("a"),
                  Message::Determination(3, false), Open("b")},
                 {Message::Determination(2, true), Open("a"),
                  Activate(Formula::Var(4)), Open("b")}),
            "[co0_1];{co0_2,true};<a>;[co0_4];{co0_3,false};<b>");
  EXPECT_EQ(Rules(), "6,1 7,1");
}

TEST_F(JoinTransducerTest, Rule9TwoDeterminations) {
  EXPECT_EQ(Send({Message::Determination(1, true), Open("a")},
                 {Message::Determination(2, false), Open("a")}),
            "{co0_1,true};{co0_2,false};<a>");
  EXPECT_EQ(Rules(), "9,1");
}

TEST_F(JoinTransducerTest, FullRoundWithMixedTraffic) {
  // left:  [f];<a>        (a matcher branch that matched)
  // right: {c,true};<a>   (a determinant branch)
  EXPECT_EQ(Send({Activate(Formula::Var(7)), Open("a")},
                 {Message::Determination(9, true), Open("a")}),
            "[co0_7];{co0_9,true};<a>");
}

TEST_F(JoinTransducerTest, SequenceOfRoundsStaysSynchronized) {
  // 100 rounds in one call, then the same rounds one call per round: the
  // output tape and the rules fired are the same.
  std::vector<Message> left;
  std::vector<Message> right;
  std::string expected;
  for (int i = 0; i < 50; ++i) {
    std::string label = "e" + std::to_string(i % 3);
    for (Message m : {Open(label), Close(label)}) {
      if (i % 7 == 0) {
        left.push_back(Activate(Formula::Var(i)));
        right.push_back(Message::Determination(i, true));
      }
      left.push_back(m);
      right.push_back(m);
    }
  }
  std::vector<Message> left_copy = left;
  std::vector<Message> right_copy = right;
  const std::string swept = Send(std::move(left), std::move(right));
  const std::string rules = Rules();
  JoinTransducer one;
  TransducerTrace one_trace;
  one.set_trace(&one_trace);
  TestEmitter per_round;
  size_t l = 0;
  size_t r = 0;
  while (l < left_copy.size()) {
    std::vector<Message> lround;
    std::vector<Message> rround;
    do lround.push_back(left_copy[l]); while (!left_copy[l++].is_document());
    do rround.push_back(right_copy[r]); while (!right_copy[r++].is_document());
    FeedPair(&one, std::move(lround), std::move(rround), &per_round);
  }
  EXPECT_EQ(swept, per_round.Summary());
  EXPECT_EQ(rules, one_trace.ToString());
  EXPECT_EQ(std::count(rules.begin(), rules.end(), ' '), 99);  // 100 groups
}

TEST_F(JoinTransducerTest, TextMessagesPairLikeDocumentMessages) {
  EXPECT_EQ(Send({Message::Document(StreamEvent::Text("x"))},
                 {Message::Document(StreamEvent::Text("x"))}),
            "\"x\"");
}

}  // namespace
}  // namespace spex
