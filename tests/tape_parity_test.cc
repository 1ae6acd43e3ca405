// Tape parity (DESIGN.md §11).  A sweep carries as many rounds as the batch
// holds, cut only at qualifier-scope exits, yet every node must write the
// tape one-round delivery writes: the transducers that share the condition
// assignment read it as of their own round.  Fed at engine batch sizes 1,
// 7 and 64, every run must agree on every node's rule trace and message
// counts, on ComputeStats(), on the results, status and certain counts
// (also under a governor breach sealed by FinalizeTruncated), and on the
// decision-delay histogram.  A rule trace makes every transducer walk
// every document message, so each batch size also runs untraced — the
// control-only walk that serving runs — and must agree with the traced
// batch-1 run on everything but the rules.  The corpus covers nested
// qualifiers, `>>` and `<<` inside and outside qualifier bodies, `&`,
// wildcard and root qualifier bases, the QueryGen mixes and a 1000-query
// population, over random trees and the §VI generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "query_gen.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "spex/multi_query.h"
#include "test_util.h"
#include "xml/generators.h"

namespace spex {
namespace {

constexpr size_t kBatchSizes[] = {1, 7, 64};

// Everything a run exposes that one-round delivery determines.
struct Tapes {
  std::vector<std::string> rules;   // per node: name, rule trace (if traced)
  std::vector<std::string> counts;  // per node: name, message counts
  std::string stats;
  std::string status;
  std::vector<std::vector<std::string>> results;  // per slot
  std::vector<int64_t> certain;                   // per slot
  std::string delay;
};

std::string RenderStats(const RunStats& stats) {
  return stats.ToString() +
         " streamed=" + std::to_string(stats.output.streamed_events) +
         " open_peak=" + std::to_string(stats.output.open_candidates_peak);
}

std::string RenderDelay(const obs::Histogram* h) {
  if (h == nullptr) return "none";
  std::string out = "count=" + std::to_string(h->count()) +
                    " sum=" + std::to_string(h->sum()) +
                    " max=" + std::to_string(h->max()) + " buckets=";
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (h->bucket(i) != 0) {
      out += std::to_string(i) + ":" + std::to_string(h->bucket(i)) + ",";
    }
  }
  return out;
}

// Feeds `events` in `batch`-event slices; a run the governor poisoned on
// the way is sealed by FinalizeTruncated.
void FeedRun(RunCore* run, const std::vector<StreamEvent>& events,
             size_t batch) {
  for (size_t i = 0; i < events.size(); i += batch) {
    run->OnEventBatch(events.data() + i, std::min(batch, events.size() - i));
  }
  if (!run->stream_complete()) run->FinalizeTruncated();
}

using Sinks = std::vector<std::unique_ptr<SerializingResultSink>>;

// `traces` is null for an untraced run.
Tapes Capture(RunCore* run, const NetworkTraces* traces, const Sinks& sinks) {
  Tapes tapes;
  const Network& network = run->network();
  for (int i = 0; i < network.node_count(); ++i) {
    const Transducer* node = network.node(i);
    if (traces != nullptr) {
      tapes.rules.push_back(node->name() + " " + traces->at(i).ToString());
    }
    tapes.counts.push_back(node->name() + " in=" +
                           std::to_string(node->stats().messages_in) +
                           " out=" +
                           std::to_string(node->stats().messages_out));
  }
  tapes.stats = RenderStats(run->ComputeStats());
  tapes.status = run->status().ToString();
  for (int slot = 0; slot < run->slot_count(); ++slot) {
    tapes.results.push_back(sinks[static_cast<size_t>(slot)]->results());
    tapes.certain.push_back(run->certain_result_count(slot));
  }
  tapes.delay = RenderDelay(run->decision_delay());
  return tapes;
}

// One leg: the full stream, or a max_events breach at two thirds sealed by
// FinalizeTruncated (certain prefix + speculative rest).
struct Leg {
  const char* name;
  bool breach;
};
constexpr Leg kLegs[] = {{"full", false}, {"breach", true}};

EngineOptions LegOptions(const Leg& leg, size_t events, OutputOrder order) {
  EngineOptions options;
  options.output_order = order;
  if (leg.breach) {
    options.limits.max_events = static_cast<int64_t>(events) * 2 / 3;
  }
  return options;
}

// One run of `queries` (a SpexEngine for one query, a population
// otherwise) fed in `batch`-event slices, with every node's rule trace
// attached when `traced`.
Tapes RunOnce(const std::vector<const Expr*>& queries,
              const std::vector<StreamEvent>& events, const Leg& leg,
              OutputOrder order, size_t batch, bool traced) {
  EngineOptions options = LegOptions(leg, events.size(), order);
  options.batch_size = static_cast<int>(batch);
  Sinks sinks;
  std::unique_ptr<RunCore> run;
  if (queries.size() == 1) {
    sinks.push_back(std::make_unique<SerializingResultSink>());
    run = std::make_unique<SpexEngine>(*queries[0], sinks[0].get(), options);
  } else {
    auto mq = std::make_unique<MultiQueryEngine>(options);
    for (const Expr* q : queries) {
      sinks.push_back(std::make_unique<SerializingResultSink>());
      EXPECT_TRUE(mq->AddQuery(*q, sinks.back().get()).ok());
    }
    mq->Finalize();
    run = std::move(mq);
  }
  std::unique_ptr<NetworkTraces> traces;
  if (traced) traces = std::make_unique<NetworkTraces>(&run->network());
  FeedRun(run.get(), events, batch);
  return Capture(run.get(), traces.get(), sinks);
}

// Runs `queries` at every batch size, traced and untraced, and expects
// identical tapes: the traced runs agree on every node's rules, and every
// run agrees with the traced batch-1 run on the rest.
void ExpectParity(const std::vector<const Expr*>& queries,
                  const std::vector<StreamEvent>& events, const Leg& leg,
                  OutputOrder order = OutputOrder::kDocumentStart) {
  const Tapes reference =
      RunOnce(queries, events, leg, order, kBatchSizes[0], /*traced=*/true);
  for (bool traced : {true, false}) {
    for (size_t batch : kBatchSizes) {
      if (traced && batch == kBatchSizes[0]) continue;  // the reference
      const Tapes run = RunOnce(queries, events, leg, order, batch, traced);
      SCOPED_TRACE(std::string(traced ? "traced" : "untraced") + " batch " +
                   std::to_string(batch) + " vs traced batch 1, leg " +
                   leg.name);
      if (traced) {
        ASSERT_EQ(run.rules.size(), reference.rules.size());
        for (size_t n = 0; n < reference.rules.size(); ++n) {
          ASSERT_EQ(run.rules[n], reference.rules[n]) << "node " << n;
        }
      }
      ASSERT_EQ(run.counts.size(), reference.counts.size());
      for (size_t n = 0; n < reference.counts.size(); ++n) {
        ASSERT_EQ(run.counts[n], reference.counts[n]) << "node " << n;
      }
      EXPECT_EQ(run.stats, reference.stats);
      EXPECT_EQ(run.status, reference.status);
      EXPECT_EQ(run.results, reference.results);
      EXPECT_EQ(run.certain, reference.certain);
      EXPECT_EQ(run.delay, reference.delay);
    }
  }
  if (leg.breach) {
    EXPECT_FALSE(reference.status == Status::Ok().ToString());
  }
}

void ExpectParity(const Expr& query, const std::vector<StreamEvent>& events) {
  for (const Leg& leg : kLegs) {
    for (OutputOrder order :
         {OutputOrder::kDocumentStart, OutputOrder::kDetermination}) {
      ExpectParity({&query}, events, leg, order);
    }
  }
}

std::vector<StreamEvent> RandomDoc(uint64_t seed) {
  RandomTreeOptions opts;
  opts.max_depth = 6;
  opts.max_children = 3;
  opts.max_elements = 80;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  return GenerateToVector(
      [&](EventSink* sink) { GenerateRandomTree(seed, opts, sink); });
}

// The constructs whose reads a sweep could reorder: nested qualifiers,
// order axes inside and outside bodies, joins, wildcard and root bases.
const char* const kConstructQueries[] = {
    "_*.a[b].c",          "_*.a[b[c]]",           "_*.a[b[c].a]._",
    "_*.a[b][c].b",       "_*._[b]",              "_*._[b]._",
    "_*._[_[c]]",         "_*[b]",                "_*[a]._*",
    "a[b]",               "_*.a[b].>>c",          "_*.a[>>b]",
    "_*.a[b.>>c]",        "_*.a.<<b",             "_*.a[b].<<c",
    "_*.a[<<b]",          "_*.a[b.<<c]",          "_*.a[b] & _*.a[c]",
    "(_*.a & _*._)[b]",   "(_*.a[c] | _*.b)[a]",  "_*.a?[b]",
    "_*.a+[b].c*",        "_*.a[b & _*.c]",       "_*.>>a[b]",
};

TEST(TapeParityTest, ConstructCorpusOnRandomTrees) {
  for (const char* text : kConstructQueries) {
    ExprPtr query = MustParseRpeq(text);
    for (uint64_t seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE(std::string(text) + " seed=" + std::to_string(seed));
      ExpectParity(*query, RandomDoc(seed));
    }
  }
}

TEST(TapeParityTest, PaperFigureStream) {
  const std::vector<StreamEvent> events =
      MustParseEvents("<a><a><c/></a><b/><c/></a>");
  for (const char* text : kConstructQueries) {
    SCOPED_TRACE(text);
    ExpectParity(*MustParseRpeq(text), events);
  }
}

TEST(TapeParityTest, QueryGenCorpus) {
  const std::vector<std::pair<std::string, QueryGenKnobs>> mixes = {
      {"default", QueryGenKnobs{}},
      {"axes20", QueryGenKnobs::WithAxes(20)},
      {"full", QueryGenKnobs::Full()}};
  for (const auto& [name, knobs] : mixes) {
    QueryGen gen(/*seed=*/0x7a9e, knobs);
    for (int i = 0; i < 40; ++i) {
      ExprPtr query = gen.Gen(2 + i % 6);
      const std::vector<StreamEvent> events = RandomDoc(100 + i);
      SCOPED_TRACE(name + " query=" + query->ToString());
      ExpectParity(*query, events);
    }
  }
}

// §VI-style documents with their query classes.
TEST(TapeParityTest, SectionSixGenerators) {
  struct Case {
    std::vector<StreamEvent> events;
    std::vector<const char*> queries;
  };
  const Case cases[] = {
      {GenerateToVector([](EventSink* s) { GenerateMondialLike(3, 0.005, s); }),
       {"_*.province.city", "_*.country[province].name",
        "_*.country[province].religions", "_*._[city]",
        "_*.country[province[city]].name", "_*.country[name].>>province"}},
      {GenerateToVector([](EventSink* s) { GenerateWordnetLike(3, 0.002, s); }),
       {"_*.Noun.wordForm", "_*.Noun[wordForm]", "_*.Noun[wordForm].gloss",
        "_*.Noun[gloss.<<id]", "_*._[wordForm] & _*.Noun[id]"}},
      {GenerateToVector([](EventSink* s) {
         GenerateDmozLike(5, 0.0002, /*content=*/true, s);
       }),
       {"_*.Topic.Title", "_*.Topic[link].Title", "_*.Topic[editor].newsGroup",
        "_*.Topic[editor].>>newsGroup", "_*.Topic[editor.<<catid]",
        "_*._[Title]", "_*._"}},
  };
  for (const Case& c : cases) {
    for (const char* text : c.queries) {
      SCOPED_TRACE(text);
      ExpectParity(*MustParseRpeq(text), c.events);
    }
  }
}

// A 1000-query population over the full language on one shared DAG: every
// node's tape and every slot's results agree at every batch size.
TEST(TapeParityTest, ThousandQueryPopulation) {
  const std::vector<std::string> labels = {"RDF",    "Topic",     "Title",
                                           "editor", "newsGroup", "_"};
  const std::vector<StreamEvent> events = GenerateToVector([](EventSink* s) {
    GenerateDmozLike(5, 0.00003, /*content=*/false, s);
  });
  QueryGenKnobs knobs = QueryGenKnobs::Full();
  knobs.labels = labels;
  QueryGen gen(/*seed=*/0x9a4175, knobs);
  std::vector<ExprPtr> owned;
  std::vector<const Expr*> queries;
  for (int i = 0; i < 1000; ++i) {
    owned.push_back(gen.Gen(2 + i % 4));
    queries.push_back(owned.back().get());
  }
  for (const Leg& leg : kLegs) ExpectParity(queries, events, leg);
}

}  // namespace
}  // namespace spex
