// Tests of the benchmark's own arithmetic: the tail rule, window accounting
// and the oracle check.

#include "bench_math.h"

#include <gtest/gtest.h>

#include "baseline/dom_evaluator.h"
#include "corpus.h"

namespace wirebench {
namespace {

TEST(TailRule, LeavesExactlyTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const LatencySummary s = Summarize(samples);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.tail, 90);  // 91..100 lie beyond
  EXPECT_DOUBLE_EQ(s.tail_pct, 90);
}

TEST(TailRule, FollowsSampleCountAndIgnoresOrder) {
  std::vector<double> samples;
  for (int i = 400; i >= 1; --i) samples.push_back(i);
  const LatencySummary s = Summarize(samples);
  EXPECT_DOUBLE_EQ(s.tail, 390);
  EXPECT_DOUBLE_EQ(s.tail_pct, 97.5);
}

TEST(TailRule, TooFewSamplesReportsTheMaximum) {
  const LatencySummary s = Summarize({3, 1, 2});
  EXPECT_DOUBLE_EQ(s.p50, 2);
  EXPECT_DOUBLE_EQ(s.tail, 3);
  EXPECT_DOUBLE_EQ(s.tail_pct, 100);
  const LatencySummary eleven = Summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_DOUBLE_EQ(eleven.tail, 1);
}

DocRecord Doc(double start, double end, bool ok, bool warmup = false,
              double first = -1) {
  DocRecord d;
  d.start_s = start;
  d.end_s = end;
  d.ok = ok;
  d.warmup = warmup;
  d.first_result_s = first;
  return d;
}

TEST(WindowAccounting, WarmupExcludedAndFailuresCounted) {
  const std::vector<DocRecord> docs = {
      Doc(0.0, 0.5, true, /*warmup=*/true),   // warm-up: never counts
      Doc(0.5, 1.0, false, /*warmup=*/true),  // failed warm-up: never counts
      Doc(1.0, 1.2, true, false, 1.1),        // in window, ok
      Doc(1.2, 1.5, false),                   // in window, failed
      Doc(1.5, 2.5, true),                    // started in window, ends late
      Doc(2.0, 2.1, true),                    // starts at t1: outside
  };
  const WindowTotals t = Account(docs, 1.0, 2.0);
  EXPECT_EQ(t.attempted, 3);
  EXPECT_EQ(t.failed, 1);
  EXPECT_EQ(t.completed, 1);  // the late one does not count as completed
  ASSERT_EQ(t.latency_ms.size(), 2u);
  EXPECT_NEAR(t.latency_ms[0], 200, 1e-9);
  EXPECT_NEAR(t.latency_ms[1], 1000, 1e-9);
  ASSERT_EQ(t.ttfr_ms.size(), 1u);
  EXPECT_NEAR(t.ttfr_ms[0], 100, 1e-9);
}

ResultDigest DigestOf(const std::vector<std::pair<uint32_t, std::string>>& r,
                      size_t slots) {
  ResultDigest d(slots);
  for (const auto& [slot, fragment] : r) d.Add(slot, fragment);
  return d;
}

TEST(OracleCheck, AcceptsSlotInterleavingButNotReordering) {
  const Expected want =
      ExpectedFrom(DigestOf({{0, "<a/>"}, {0, "<b/>"}, {1, "<c/>"}}, 2));
  const ResultDigest interleaved =
      DigestOf({{1, "<c/>"}, {0, "<a/>"}, {0, "<b/>"}}, 2);
  const ResultDigest reordered =
      DigestOf({{0, "<b/>"}, {0, "<a/>"}, {1, "<c/>"}}, 2);
  const ResultDigest wrong_slot =
      DigestOf({{1, "<a/>"}, {0, "<b/>"}, {0, "<c/>"}}, 2);
  EXPECT_EQ(CheckDocument(want, interleaved, true, 3, 3), "");
  EXPECT_NE(CheckDocument(want, reordered, true, 3, 3), "");
  EXPECT_NE(CheckDocument(want, wrong_slot, true, 3, 3), "");
}

TEST(OracleCheck, CatchesCountsAndTerminalFrames) {
  const Expected want = ExpectedFrom(DigestOf({{0, "<a/>"}}, 1));
  const ResultDigest got = DigestOf({{0, "<a/>"}}, 1);
  EXPECT_EQ(CheckDocument(want, got, true, 1, 1), "");
  EXPECT_NE(CheckDocument(want, got, false, 1, 1), "");  // ERROR frame
  EXPECT_NE(CheckDocument(want, got, true, 0, 1), "");   // not all certain
  EXPECT_NE(CheckDocument(want, got, true, 2, 2), "");   // DOC_DONE total
  const ResultDigest twice = DigestOf({{0, "<a/>"}, {0, "<a/>"}}, 1);
  EXPECT_NE(CheckDocument(want, twice, true, 2, 2), "");
  ResultDigest bad(1);
  EXPECT_FALSE(bad.Add(3, "<a/>"));
  EXPECT_NE(CheckDocument(want, bad, true, 1, 1), "");
}

TEST(OracleCheck, CatchesACorruptedFragmentOfARealDocument) {
  const Corpus corpus = BuildCorpus("wire_qualifier", 7);
  ASSERT_FALSE(corpus.docs.empty());
  const std::string& xml = corpus.docs[0];
  const ResultDigest oracle = OracleDigest(corpus, xml);
  ASSERT_GT(oracle.count(), 0u);
  EXPECT_EQ(CheckDocument(corpus.expected[0], oracle, true, oracle.count(),
                          oracle.count()),
            "");

  // The same fragments with one byte flipped in one of them.
  const std::vector<std::string> fragments =
      spex::DomEvaluateToStrings(*corpus.query, xml);
  ResultDigest corrupted(1);
  for (size_t i = 0; i < fragments.size(); ++i) {
    std::string f = fragments[i];
    if (i == fragments.size() / 2) f[f.size() / 2] ^= 1;
    corrupted.Add(0, f);
  }
  EXPECT_NE(CheckDocument(corpus.expected[0], corrupted, true,
                          corrupted.count(), corrupted.count()),
            "");
}

TEST(Corpus, SameSeedSameBytesAndPopulationKeepsItsSlots) {
  const Corpus a = BuildCorpus("wire_subscriptions", 3);
  const Corpus b = BuildCorpus("wire_subscriptions", 3);
  EXPECT_EQ(a.docs, b.docs);
  EXPECT_EQ(a.prepare_text, b.prepare_text);
  EXPECT_GE(a.slots, a.min_slots);
  EXPECT_NE(BuildCorpus("wire_subscriptions", 4).docs, a.docs);
}

}  // namespace
}  // namespace wirebench
