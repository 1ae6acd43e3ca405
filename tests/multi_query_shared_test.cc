// Sharing-equivalence battery for the CSE-merged multi-query DAG
// (DESIGN.md §14): over seeded populations of generated rpeqs and §VI-style
// documents, per-query results through the shared network must be
// byte-for-byte identical — document order included — to (a) N independent
// SpexEngine runs and (b) the DOM oracle, while sharing strictly reduces
// network degree whenever any two queries overlap.  Plus structural CSE
// properties (duplicate spine, spelling variants, zero overlap,
// registration order) and the population template / subscription-session
// plumbing on top.

#include "spex/multi_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "query_gen.h"
#include "rpeq/parser.h"
#include "runtime/engine_pool.h"
#include "runtime/query_cache.h"
#include "spex/engine.h"
#include "test_util.h"
#include "xml/dom.h"
#include "xml/generators.h"

namespace spex {
namespace {

// The canonical key of a query's first decomposition step — the root-level
// unit the engine hash-conses on.  Two queries with equal first steps are
// guaranteed to share compiled structure.
std::string FirstStepKey(const Expr& e) {
  const Expr* cur = &e;
  while (cur->kind == ExprKind::kConcat || cur->kind == ExprKind::kQualified) {
    cur = cur->left.get();
  }
  return cur->ToString();
}

struct DocCase {
  const char* name;
  std::vector<std::string> labels;  // generator vocabulary + wildcard
  std::vector<StreamEvent> events;
};

// Small §VI-style documents: MONDIAL-like (structured, deep-ish),
// WordNet-like (flat, repetitive), DMOZ-like (flat, wide).  Small scales
// keep the N-independent-engines comparison tractable at population 1000.
std::vector<DocCase> SectionSixDocs() {
  std::vector<DocCase> docs;
  docs.push_back(
      {"mondial",
       {"mondial", "country", "name", "province", "city", "religions", "_"},
       GenerateToVector(
           [](EventSink* s) { GenerateMondialLike(11, 0.02, s); })});
  docs.push_back({"wordnet",
                  {"wordnet", "Noun", "id", "wordForm", "gloss", "_"},
                  GenerateToVector(
                      [](EventSink* s) { GenerateWordnetLike(7, 0.005, s); })});
  docs.push_back(
      {"dmoz",
       {"RDF", "Topic", "Title", "editor", "newsGroup", "_"},
       GenerateToVector([](EventSink* s) {
         GenerateDmozLike(5, 0.0005, /*content=*/false, s);
       })});
  return docs;
}

// A seeded population of `population` generated queries over `labels`.
std::vector<ExprPtr> GeneratePopulation(int population, uint64_t seed,
                                        const std::vector<std::string>& labels,
                                        QueryGenKnobs knobs = {}) {
  knobs.labels = labels;
  QueryGen gen(seed, knobs);
  std::vector<ExprPtr> queries;
  queries.reserve(static_cast<size_t>(population));
  for (int i = 0; i < population; ++i) queries.push_back(gen.Gen(2 + i % 4));
  return queries;
}

// One battery cell: `population` generated queries against one document,
// evaluated through the merged DAG and checked query-by-query against the
// independent engine and the DOM oracle.
void RunSharingCell(int population, uint64_t seed, const DocCase& doc) {
  Document dom;
  std::string error;
  ASSERT_TRUE(EventsToDocument(doc.events, &dom, &error)) << error;

  const std::vector<ExprPtr> queries =
      GeneratePopulation(population, seed, doc.labels);

  std::vector<std::unique_ptr<SerializingResultSink>> sinks;
  MultiQueryEngine mq;
  for (const ExprPtr& q : queries) {
    sinks.push_back(std::make_unique<SerializingResultSink>());
    StatusOr<int> id = mq.AddQuery(*q, sinks.back().get());
    ASSERT_TRUE(id.ok()) << id.status().message();
  }
  mq.Finalize();
  for (const StreamEvent& e : doc.events) mq.OnEvent(e);

  bool overlap = false;
  std::set<std::string> first_steps;
  // Generated populations repeat queries; evaluate each distinct canonical
  // text once (the duplicates' expectations are identical by definition).
  std::map<std::string, std::pair<std::vector<std::string>,
                                  std::vector<std::string>>> expected;
  int64_t total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!first_steps.insert(FirstStepKey(*queries[i])).second) overlap = true;
    SCOPED_TRACE(std::string(doc.name) + " population=" +
                 std::to_string(population) + " q=" + std::to_string(i) +
                 " query=" + queries[i]->ToString());
    auto it = expected.find(queries[i]->ToString());
    if (it == expected.end()) {
      it = expected
               .emplace(queries[i]->ToString(),
                        std::make_pair(
                            EvaluateToStrings(*queries[i], doc.events),
                            DomEvaluateToStrings(*queries[i], dom)))
               .first;
    }
    const std::vector<std::string>& shared = sinks[i]->results();
    ASSERT_EQ(shared, it->second.first);
    ASSERT_EQ(shared, it->second.second);
    EXPECT_EQ(mq.result_count(static_cast<int>(i)),
              static_cast<int64_t>(shared.size()));
    total += static_cast<int64_t>(shared.size());
  }
  EXPECT_EQ(mq.result_count(), total);
  // The §IX sharing win: any overlapping pair makes the merged DAG
  // strictly smaller than N separate networks.
  if (overlap) {
    EXPECT_LT(mq.shared_degree(), mq.naive_degree())
        << doc.name << " population=" << population;
  }
}

class MultiQuerySharedBattery : public ::testing::TestWithParam<int> {};

TEST_P(MultiQuerySharedBattery, SharedResultsMatchIndependentAndOracle) {
  const int population = GetParam();
  const std::vector<DocCase> docs = SectionSixDocs();
  for (size_t d = 0; d < docs.size(); ++d) {
    RunSharingCell(population, 0x5eed0000u + population * 31 + d, docs[d]);
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, MultiQuerySharedBattery,
                         ::testing::Values(2, 16, 128, 1000));

// The stream of the paper's Fig. 1.
constexpr char kPaperDoc[] = "<a><a><c/></a><b/><c/></a>";

// ---------------------------------------------------------------------------
// Sweep buffers (Network::AssignBuffers): one pending buffer per tape live at
// once, not one per tape.

// The most tapes live at any sweep position, from the wiring alone: tape t
// is live over [producer, consumer] (closed) and an injection point — an
// input port 0 no tape feeds — over [node, node].
int MaxLiveTapes(const Network& network) {
  const size_t n = static_cast<size_t>(network.node_count());
  std::vector<int> delta(n + 1, 0);
  std::vector<bool> fed(n, false);
  for (int t = 0; t < network.tape_count(); ++t) {
    const Network::TapeInfo info = network.tape_info(t);
    if (info.producer_node == -1 || info.consumer_node == -1) continue;
    const size_t producer = static_cast<size_t>(info.producer_node);
    const size_t consumer = static_cast<size_t>(info.consumer_node);
    ++delta[producer];
    --delta[consumer + 1];
    if (info.consumer_port == 0) fed[consumer] = true;
  }
  for (size_t id = 0; id < n; ++id) {
    if (!fed[id]) {
      ++delta[id];
      --delta[id + 1];
    }
  }
  int live = 0;
  int peak = 0;
  for (size_t id = 0; id < n; ++id) {
    live += delta[id];
    peak = std::max(peak, live);
  }
  return peak;
}

TEST(SweepBuffers, Fig12NetworkHoldsOneBufferPerLiveTape) {
  ExprPtr query = MustParseRpeq("_*.a[b].c");
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink);
  EXPECT_EQ(engine.network().buffer_count(), 0);  // assigned on first sweep
  for (const StreamEvent& e : MustParseEvents(kPaperDoc)) {
    engine.OnEvent(e);
  }
  EXPECT_EQ(sink.results(), (std::vector<std::string>{"<c></c>"}));
  EXPECT_EQ(engine.network().buffer_count(),
            MaxLiveTapes(engine.network()));
  EXPECT_LT(engine.network().buffer_count(), engine.network().tape_count());
}

// 1000-query populations, condition-free (whole-batch sweeps) and with
// qualifiers (sweeps cut at qualifier-scope exits), fed in 64-event
// batches: the coloured buffers stay at the live-tape bound, far below the
// tape count, and every slot's results equal an independent engine's byte
// for byte.
TEST(SweepBuffers, PopulationHoldsOneBufferPerLiveTape) {
  // A ~200-event DMOZ-like document (a few 64-event batches) keeps 1000
  // independent reference engines quick, sanitizer builds included.
  const DocCase doc{"dmoz",
                    {"RDF", "Topic", "Title", "editor", "newsGroup", "_"},
                    GenerateToVector([](EventSink* s) {
                      GenerateDmozLike(5, 0.00003, /*content=*/false, s);
                    })};
  ASSERT_GT(doc.events.size(), size_t{128});
  for (const bool qualifiers : {false, true}) {
    SCOPED_TRACE(qualifiers ? "qualifiers" : "condition-free");
    QueryGenKnobs knobs;
    knobs.qualifiers = qualifiers;
    const std::vector<ExprPtr> queries =
        GeneratePopulation(1000, 0xb0ffe5u, doc.labels, knobs);
    std::vector<std::unique_ptr<SerializingResultSink>> sinks;
    MultiQueryEngine mq;
    for (const ExprPtr& q : queries) {
      sinks.push_back(std::make_unique<SerializingResultSink>());
      ASSERT_TRUE(mq.AddQuery(*q, sinks.back().get()).ok());
    }
    mq.Finalize();
    for (size_t i = 0; i < doc.events.size(); i += 64) {
      mq.OnEventBatch(doc.events.data() + i,
                      std::min<size_t>(64, doc.events.size() - i));
    }
    const Network& network = mq.network();
    EXPECT_EQ(network.buffer_count(), MaxLiveTapes(network));
    EXPECT_LT(network.buffer_count() * 10, network.tape_count())
        << network.buffer_count() << " buffers for " << network.tape_count()
        << " tapes";

    std::map<std::string, std::vector<std::string>> expected;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string text = queries[i]->ToString();
      auto it = expected.find(text);
      if (it == expected.end()) {
        it = expected.emplace(text, EvaluateToStrings(*queries[i], doc.events))
                 .first;
      }
      ASSERT_EQ(sinks[i]->results(), it->second) << "q=" << i << " " << text;
    }
  }
}

// ---------------------------------------------------------------------------
// CSE structural properties.


int DegreeOf(const std::string& query) {
  CountingResultSink sink;
  MultiQueryEngine mq;
  EXPECT_TRUE(mq.AddQuery(query, &sink).ok());
  mq.Finalize();
  return mq.shared_degree();
}

TEST(MultiQuerySharedStructure, DuplicateQueryIsOneSpineTwoCollectors) {
  // Registering the same query twice adds exactly one split and one more
  // collector to the single-query network: the whole spine is shared.
  const int single = DegreeOf("_*.a[b].c");
  SerializingResultSink s1, s2;
  MultiQueryEngine mq;
  ASSERT_TRUE(mq.AddQuery("_*.a[b].c", &s1).ok());
  ASSERT_TRUE(mq.AddQuery("_*.a[b].c", &s2).ok());
  mq.Finalize();
  EXPECT_EQ(mq.shared_degree(), single + 2);  // + SP + second OU
  for (const StreamEvent& e : MustParseEvents(kPaperDoc)) mq.OnEvent(e);
  EXPECT_EQ(s1.results(), s2.results());
}

TEST(MultiQuerySharedStructure, SpellingVariantsCanonicalizeAndShare) {
  // Whitespace / parenthesization variants canonicalize (ToString) to the
  // same step keys, so they share exactly like verbatim duplicates.
  ASSERT_EQ(MustParseRpeq("_* . a[ b ] . c")->ToString(),
            MustParseRpeq("_*.a[b].c")->ToString());
  const int single = DegreeOf("_*.a[b].c");
  SerializingResultSink s1, s2, s3;
  MultiQueryEngine mq;
  ASSERT_TRUE(mq.AddQuery("_*.a[b].c", &s1).ok());
  ASSERT_TRUE(mq.AddQuery("_* . a[ b ] . c", &s2).ok());
  ASSERT_TRUE(mq.AddQuery("(_*) . (a[b]) . c", &s3).ok());
  mq.Finalize();
  // One spine, two splits, three collectors.
  EXPECT_EQ(mq.shared_degree(), single + 4);
  for (const StreamEvent& e : MustParseEvents(kPaperDoc)) mq.OnEvent(e);
  EXPECT_EQ(s1.results(), s2.results());
  EXPECT_EQ(s1.results(), s3.results());
}

TEST(MultiQuerySharedStructure, ZeroOverlapDegradesToNaiveDegree) {
  // Fully disjoint first steps: the shared network is the N separate
  // networks glued to one IN — the (N-1) saved INs pay for the (N-1) root
  // splits exactly, so shared degree equals the naive sum.
  CountingResultSink s1, s2, s3;
  MultiQueryEngine mq;
  ASSERT_TRUE(mq.AddQuery("a.b", &s1).ok());
  ASSERT_TRUE(mq.AddQuery("c.d", &s2).ok());
  ASSERT_TRUE(mq.AddQuery("b+.a", &s3).ok());
  mq.Finalize();
  EXPECT_EQ(mq.shared_degree(), mq.naive_degree());
}

TEST(MultiQuerySharedStructure, SharingIsInsensitiveToRegistrationOrder) {
  // Same population, any registration order: same digest, same node count.
  QueryGenKnobs knobs;
  knobs.labels = {"a", "b", "c", "_"};
  QueryGen gen(0xabcdef, knobs);
  std::vector<std::string> texts;
  for (int i = 0; i < 40; ++i) texts.push_back(gen.Gen(2 + i % 4)->ToString());

  std::vector<std::string> reversed(texts.rbegin(), texts.rend());
  StatusOr<std::string> digest_fwd = MultiQueryTemplate::CanonicalDigest(texts);
  StatusOr<std::string> digest_rev =
      MultiQueryTemplate::CanonicalDigest(reversed);
  ASSERT_TRUE(digest_fwd.ok());
  ASSERT_TRUE(digest_rev.ok());
  EXPECT_EQ(*digest_fwd, *digest_rev);

  auto degree_of = [](const std::vector<std::string>& population) {
    CountingResultSink sink;
    MultiQueryEngine mq;
    for (const std::string& q : population) {
      EXPECT_TRUE(mq.AddQuery(q, &sink).ok());
    }
    mq.Finalize();
    return mq.shared_degree();
  };
  EXPECT_EQ(degree_of(texts), degree_of(reversed));
}

// ---------------------------------------------------------------------------
// Population template + cache + subscription sessions.

TEST(MultiQuerySharedTemplate, BuildDedupsIntoSortedSlots) {
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> built =
      MultiQueryTemplate::Build(
          {"_*.a.c", "_*.a.b", "_* . a . c", "_*.a[b].c"});
  ASSERT_TRUE(built.ok()) << built.status().message();
  const MultiQueryTemplate& t = **built;
  EXPECT_EQ(t.input_count(), 4);
  EXPECT_EQ(t.slot_count(), 3);  // the spelling variant collapses
  EXPECT_EQ(t.slot_of(0), t.slot_of(2));
  EXPECT_NE(t.slot_of(0), t.slot_of(1));
  for (int s = 1; s < t.slot_count(); ++s) {
    EXPECT_LT(t.slot_text(s - 1), t.slot_text(s));  // sorted, deduped
  }
  EXPECT_LT(t.shared_degree(), t.naive_degree());
  EXPECT_EQ(t.digest(),
            *MultiQueryTemplate::CanonicalDigest(
                {"_*.a[b].c", "_*.a.b", "_*.a.c"}));
}

TEST(MultiQuerySharedTemplate, BuildRejectsBadQuery) {
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> built =
      MultiQueryTemplate::Build({"_*.a.c", "a[", "_*.a.b"});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kMalformedInput);
}

TEST(MultiQuerySharedTemplate, TemplateEngineMatchesAdHocEngine) {
  const std::vector<std::string> population = {
      "_*.country.name", "_*.country[province].name", "_*.country.religions"};
  std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(3, 0.05, s); });

  StatusOr<std::shared_ptr<const MultiQueryTemplate>> built =
      MultiQueryTemplate::Build(population);
  ASSERT_TRUE(built.ok());
  std::vector<std::unique_ptr<SerializingResultSink>> slot_sinks;
  std::vector<ResultSink*> sink_ptrs;
  for (int s = 0; s < (*built)->slot_count(); ++s) {
    slot_sinks.push_back(std::make_unique<SerializingResultSink>());
    sink_ptrs.push_back(slot_sinks.back().get());
  }
  MultiQueryEngine from_template(*built, sink_ptrs);
  ASSERT_TRUE(from_template.finalized());
  EXPECT_EQ(from_template.shared_degree(), (*built)->shared_degree());
  EXPECT_EQ(from_template.naive_degree(), (*built)->naive_degree());
  for (const StreamEvent& e : events) from_template.OnEvent(e);

  for (int s = 0; s < (*built)->slot_count(); ++s) {
    SCOPED_TRACE("slot=" + std::to_string(s) +
                 " query=" + (*built)->slot_text(s));
    EXPECT_EQ(slot_sinks[static_cast<size_t>(s)]->results(),
              EvaluateToStrings((*built)->slot_expr(s), events));
  }
}

TEST(MultiQuerySharedTemplate, CacheKeysPopulationsByDigest) {
  CompiledQueryCache cache(8);
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> first =
      cache.GetMulti({"_*.a.c", "_*.a.b"});
  ASSERT_TRUE(first.ok());
  const int64_t misses = cache.misses();
  // Same population — different order, different spelling — is a pure hit
  // on the same resident template.
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> second =
      cache.GetMulti({"_* . a . b", "_*.a.c"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.misses(), misses);
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> bad =
      cache.GetMulti({"_*.a.c", "a["});
  EXPECT_FALSE(bad.ok());
}

TEST(MultiQuerySharedTemplate, CacheNeverResolvesADigestToAQuery) {
  // Populations and single queries share one LRU.  A digest is hex, so one
  // starting with a letter is also a valid rpeq label whose canonical text
  // is the digest itself: each kind must still resolve only to its own.
  CompiledQueryCache cache(64);
  std::vector<std::string> population = {"_*.a.c", "_*.a.b"};
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> multi =
      cache.GetMulti(population);
  auto digit_first = [](const std::string& digest) {
    return std::isdigit(static_cast<unsigned char>(digest[0])) != 0;
  };
  for (int i = 0; i < 32 && multi.ok() && digit_first((*multi)->digest());
       ++i) {
    population.push_back("_*.d" + std::to_string(i));
    multi = cache.GetMulti(population);
  }
  ASSERT_TRUE(multi.ok());
  const std::string digest = (*multi)->digest();
  ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(digest[0]))) << digest;

  const int64_t misses = cache.misses();
  StatusOr<std::shared_ptr<const QueryTemplate>> single = cache.Get(digest);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(cache.misses(), misses + 1);
  EXPECT_EQ((*single)->canonical_text(), digest);
  EXPECT_EQ((*single)->slot_count(), 1);
  EXPECT_EQ(cache.GetMulti(population)->get(), multi->get());
  EXPECT_EQ(cache.Get(digest)->get(), single->get());
}

TEST(MultiQuerySharedPool, SubscriptionSessionRoutesPerSlot) {
  const std::vector<std::string> population = {
      "_*.country.name", "_*.country[province].name", "_*.country.religions",
      "_* . country . name"};  // spelling duplicate, collapses into a slot
  std::vector<StreamEvent> events = GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(9, 0.05, s); });

  CompiledQueryCache cache(8);
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> mq_template =
      cache.GetMulti(population);
  ASSERT_TRUE(mq_template.ok());

  PoolOptions options;
  options.threads = 2;
  EnginePool pool(options);
  std::shared_ptr<StreamSession> session =
      pool.OpenSubscriptions(*mq_template);
  ASSERT_EQ(session->slot_count(), (*mq_template)->slot_count());
  EXPECT_EQ(session->query().rfind("multi:", 0), 0u);
  session->Feed(std::vector<StreamEvent>(events));
  session->Close();
  session->Wait();
  ASSERT_TRUE(session->status().ok()) << session->status().message();

  int64_t total = 0;
  for (int s = 0; s < (*mq_template)->slot_count(); ++s) {
    SCOPED_TRACE("slot=" + std::to_string(s) +
                 " query=" + (*mq_template)->slot_text(s));
    const std::vector<std::string> expected =
        EvaluateToStrings((*mq_template)->slot_expr(s), events);
    EXPECT_EQ(session->slot_results(s), expected);
    EXPECT_EQ(session->slot_certain_count(s),
              static_cast<int64_t>(expected.size()));
    total += static_cast<int64_t>(expected.size());
  }
  EXPECT_EQ(session->result_count(), total);
}

TEST(MultiQuerySharedPool, ManyDocumentsShareOneTemplate) {
  // The standing-population shape spexserve's subscription mode runs: one
  // template, one session per document, byte-identical per-slot results.
  CompiledQueryCache cache(8);
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> mq_template =
      cache.GetMulti({"_*.Topic.Title", "_*.Topic[editor].newsGroup",
                      "_*.Topic.editor"});
  ASSERT_TRUE(mq_template.ok());

  PoolOptions options;
  options.threads = 3;
  EnginePool pool(options);
  std::vector<std::vector<StreamEvent>> docs;
  std::vector<std::shared_ptr<StreamSession>> sessions;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    docs.push_back(GenerateToVector([seed](EventSink* s) {
      GenerateDmozLike(seed, 0.0005, /*content=*/false, s);
    }));
    std::shared_ptr<StreamSession> session =
        pool.OpenSubscriptions(*mq_template);
    session->Feed(std::vector<StreamEvent>(docs.back()));
    session->Close();
    sessions.push_back(std::move(session));
  }
  for (size_t d = 0; d < sessions.size(); ++d) {
    sessions[d]->Wait();
    ASSERT_TRUE(sessions[d]->status().ok());
    for (int s = 0; s < (*mq_template)->slot_count(); ++s) {
      SCOPED_TRACE("doc=" + std::to_string(d) + " slot=" + std::to_string(s));
      EXPECT_EQ(sessions[d]->slot_results(s),
                EvaluateToStrings((*mq_template)->slot_expr(s), docs[d]));
    }
  }
}

}  // namespace
}  // namespace spex
