// Unit tests for the synthetic dataset generators (§VI substitutions).

#include "xml/generators.h"

#include <gtest/gtest.h>

#include "xml/dom.h"
#include "xml/stream_event.h"

namespace spex {
namespace {

TEST(GeneratorsTest, MondialLikeShape) {
  RecordingEventSink sink;
  GeneratorStats stats = GenerateMondialLike(42, 1.0, &sink);
  std::string error;
  EXPECT_TRUE(ValidateStream(sink.events(), &error)) << error;
  // Paper: 24,184 elements, depth 5.  Accept the right ballpark.
  EXPECT_GT(stats.elements, 18000);
  EXPECT_LT(stats.elements, 36000);
  EXPECT_EQ(stats.max_depth, 5);  // mondial/country/province/city/name
  EXPECT_EQ(stats.elements, CountElements(sink.events()));
  EXPECT_EQ(stats.max_depth, StreamDepth(sink.events()));
}

TEST(GeneratorsTest, MondialIsDeterministicPerSeed) {
  RecordingEventSink a, b, c;
  GenerateMondialLike(7, 0.1, &a);
  GenerateMondialLike(7, 0.1, &b);
  GenerateMondialLike(8, 0.1, &c);
  EXPECT_EQ(a.events(), b.events());
  EXPECT_NE(a.events(), c.events());
}

TEST(GeneratorsTest, MondialChildOrderSupportsQueryClasses) {
  // `name` must precede `province` (future condition, class 2) and
  // `religions` must follow it (past condition, class 4).
  RecordingEventSink sink;
  GenerateMondialLike(1, 0.05, &sink);
  Document doc;
  std::string error;
  ASSERT_TRUE(EventsToDocument(sink.events(), &doc, &error)) << error;
  bool saw_country_with_provinces = false;
  for (int32_t c : doc.ElementChildren(doc.root())) {
    ASSERT_EQ(doc.node(c).label, "country");
    int name_pos = -1, first_province = -1, first_religion = -1;
    std::vector<int32_t> kids = doc.ElementChildren(c);
    for (size_t i = 0; i < kids.size(); ++i) {
      const std::string& l = doc.node(kids[i]).label;
      if (l == "name" && name_pos < 0) name_pos = static_cast<int>(i);
      if (l == "province" && first_province < 0) {
        first_province = static_cast<int>(i);
      }
      if (l == "religions" && first_religion < 0) {
        first_religion = static_cast<int>(i);
      }
    }
    ASSERT_GE(name_pos, 0);
    if (first_province >= 0) {
      saw_country_with_provinces = true;
      EXPECT_LT(name_pos, first_province);
      if (first_religion >= 0) {
        EXPECT_LT(first_province, first_religion);
      }
    }
  }
  EXPECT_TRUE(saw_country_with_provinces);
}

TEST(GeneratorsTest, WordnetLikeShape) {
  RecordingEventSink sink;
  GeneratorStats stats = GenerateWordnetLike(42, 0.1, &sink);
  std::string error;
  EXPECT_TRUE(ValidateStream(sink.events(), &error)) << error;
  EXPECT_EQ(stats.max_depth, 3);  // wordnet/Noun/wordForm
  // ~10% of the paper's 207,899 elements.
  EXPECT_GT(stats.elements, 10000);
  EXPECT_LT(stats.elements, 35000);
}

TEST(GeneratorsTest, WordnetSomeNounsLackWordForm) {
  RecordingEventSink sink;
  GenerateWordnetLike(3, 0.02, &sink);
  Document doc;
  std::string error;
  ASSERT_TRUE(EventsToDocument(sink.events(), &doc, &error)) << error;
  int with = 0, without = 0;
  for (int32_t n : doc.ElementChildren(doc.root())) {
    bool has = false;
    for (int32_t k : doc.ElementChildren(n)) {
      if (doc.node(k).label == "wordForm") has = true;
    }
    (has ? with : without)++;
  }
  EXPECT_GT(with, 0);
  EXPECT_GT(without, 0);
}

TEST(GeneratorsTest, DmozLikeStructureAndContentScale) {
  RecordingEventSink s1, s2;
  GeneratorStats structure = GenerateDmozLike(42, 0.001, false, &s1);
  GeneratorStats content = GenerateDmozLike(42, 0.001, true, &s2);
  EXPECT_EQ(structure.max_depth, 3);
  EXPECT_EQ(content.max_depth, 3);
  // The content variant is substantially larger at equal scale (paper:
  // 3.94M vs 13.2M elements).
  EXPECT_GT(content.elements, 2 * structure.elements);
  std::string error;
  EXPECT_TRUE(ValidateStream(s1.events(), &error)) << error;
}

TEST(GeneratorsTest, RandomTreeRespectsLimits) {
  RandomTreeOptions opts;
  opts.max_depth = 4;
  opts.max_elements = 50;
  opts.labels = {"a", "b"};
  RecordingEventSink sink;
  GeneratorStats stats = GenerateRandomTree(11, opts, &sink);
  EXPECT_LE(stats.max_depth, 4);
  EXPECT_LE(stats.elements, 51);  // root + budget
  std::string error;
  EXPECT_TRUE(ValidateStream(sink.events(), &error)) << error;
}

TEST(GeneratorsTest, DeepChain) {
  RecordingEventSink sink;
  GeneratorStats stats = GenerateDeepChain(64, {"a", "b"}, &sink);
  EXPECT_EQ(stats.max_depth, 64);
  EXPECT_EQ(stats.elements, 64);
  std::string error;
  EXPECT_TRUE(ValidateStream(sink.events(), &error)) << error;
}

TEST(GeneratorsTest, WideFlat) {
  RecordingEventSink sink;
  GeneratorStats stats = GenerateWideFlat(1000, "r", "x", &sink);
  EXPECT_EQ(stats.elements, 1001);
  EXPECT_EQ(stats.max_depth, 2);
}

TEST(GeneratorsTest, EndlessSourceHasBoundedDepthRecords) {
  EndlessEventSource source(5);
  RecordingEventSink sink;
  source.Begin(&sink);
  for (int i = 0; i < 100; ++i) source.NextRecord(&sink);
  EXPECT_EQ(source.records_emitted(), 100);
  // The stream never ends, but its depth stays bounded.
  EXPECT_LE(StreamDepth(sink.events()), 3);
  int depth = 0;
  for (const StreamEvent& e : sink.events()) {
    if (e.kind == EventKind::kStartElement) ++depth;
    if (e.kind == EventKind::kEndElement) --depth;
    EXPECT_GE(depth, 0);
  }
}

}  // namespace
}  // namespace spex
