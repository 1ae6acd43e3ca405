// The one engine core (spex/run_core.h) under its three front-ends: a
// one-query population compiles to exactly the single-query network, and
// SpexEngine, a one-query MultiQueryEngine and the one-atom conjunctive query
// `q(X) :- Root(r) X` behave identically — fragments, governor statuses,
// certain prefixes, progress watermarks and message counts — at every batch
// size, and every batch size matches per-event feeding.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cq/conjunctive.h"
#include "query_gen.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "spex/multi_query.h"
#include "xml/generators.h"

namespace spex {
namespace {

// The four §VI query classes of each evaluation corpus.
const char* const kSectionSixQueries[] = {
    "_*.province.city", "_*.country[province].name",
    "_*.country[province].religions", "_*.Noun.wordForm",
    "_*.Noun[wordForm]", "_*.Noun[wordForm].gloss",
    "_*.Topic.Title", "_*.Topic[editor].Title",
    "_*.Topic[editor].newsGroup", "_*._"};

std::string SingleNetwork(const Expr& query) {
  CountingResultSink sink;
  SpexEngine engine(query, &sink);
  return engine.network().Describe();
}

std::string OneSlotPopulationNetwork(const Expr& query) {
  CountingResultSink sink;
  MultiQueryEngine mq;
  EXPECT_TRUE(mq.AddQuery(query, &sink).ok());
  mq.Finalize();
  return mq.network().Describe();
}

TEST(RunCoreTest, OneSlotPopulationCompilesToSingleQueryNetwork) {
  const std::vector<std::pair<std::string, QueryGenKnobs>> mixes = {
      {"default", QueryGenKnobs{}},
      {"structural", QueryGenKnobs::Structural()},
      {"axes20", QueryGenKnobs::WithAxes(20)},
      {"full", QueryGenKnobs::Full()}};
  int compared = 0;
  for (const auto& [name, knobs] : mixes) {
    QueryGen gen(/*seed=*/2024, knobs);
    for (int i = 0; i < 300; ++i) {
      ExprPtr query = gen.Gen(1 + i % 6);
      SCOPED_TRACE(name + " query=" + query->ToString());
      ASSERT_EQ(OneSlotPopulationNetwork(*query), SingleNetwork(*query));
      ++compared;
    }
  }
  for (const char* text : kSectionSixQueries) {
    SCOPED_TRACE(text);
    ExprPtr query = MustParseRpeq(text);
    ASSERT_EQ(OneSlotPopulationNetwork(*query), SingleNetwork(*query));
    ++compared;
  }
  EXPECT_EQ(compared, 4 * 300 + 10);
}

// ---------------------------------------------------------------------------
// Front-end parity.

struct RunOutcome {
  std::vector<std::string> fragments;
  StatusCode code = StatusCode::kOk;
  int64_t certain = 0;
  int64_t watermarks = 0;
  int64_t total_messages = 0;
};

bool operator==(const RunOutcome& a, const RunOutcome& b) {
  return a.fragments == b.fragments && a.code == b.code &&
         a.certain == b.certain && a.watermarks == b.watermarks &&
         a.total_messages == b.total_messages;
}

void PrintTo(const RunOutcome& o, std::ostream* os) {
  *os << "{fragments=" << o.fragments.size()
      << " code=" << StatusCodeName(o.code) << " certain=" << o.certain
      << " watermarks=" << o.watermarks
      << " messages=" << o.total_messages << "}";
}

// Feeds `events` in `batch`-sized slices, seals a breached run, and reads
// back what every front-end must agree on.  With `attach_halfway`, a trace
// recorder and a profiler are attached at the first batch boundary at or
// past the middle of the stream (and must have observed the rest).
RunOutcome Drive(RunCore* engine, const SerializingResultSink& sink,
                 const std::vector<StreamEvent>& events, size_t batch,
                 const int64_t* watermarks, bool attach_halfway = false) {
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::unique_ptr<obs::ProfileAccumulator> profiler;
  for (size_t i = 0; i < events.size(); i += batch) {
    if (attach_halfway && recorder == nullptr && i >= events.size() / 2) {
      recorder = std::make_unique<obs::TraceRecorder>();
      profiler = std::make_unique<obs::ProfileAccumulator>(
          engine->network().node_count());
      engine->AttachTrace(recorder.get());
      engine->AttachProfiler(profiler.get());
    }
    if (batch == 1) {
      engine->OnEvent(events[i]);
    } else {
      engine->OnEventBatch(events.data() + i,
                           std::min(batch, events.size() - i));
    }
  }
  if (!engine->status().ok()) engine->FinalizeTruncated();
  RunOutcome out;
  out.fragments = sink.results();
  out.code = engine->status().code();
  out.certain = engine->certain_result_count(0);
  out.watermarks = *watermarks;
  out.total_messages = engine->ComputeStats().total_messages;
  if (attach_halfway) {
    EXPECT_GT(recorder->recorded(), 0);
    EXPECT_GT(profiler->total_self_ns(), 0);
    engine->AttachTrace(nullptr);
    engine->AttachProfiler(nullptr);
  }
  return out;
}

TEST(RunCoreTest, FrontEndParity) {
  // Every EngineOptions knob that changes evaluation gets a leg, and so does
  // attaching observation mid-stream.
  struct Config {
    std::string name;
    std::function<void(EngineOptions*, size_t events)> apply;
    bool limit = false;          // the leg sets a governor limit
    bool attach_halfway = false;  // recorder + profiler attached mid-stream
    int breaches = 0;
  };
  std::vector<Config> configs = {
      {"progress",
       [](EngineOptions* o, size_t) { o->progress.every_events = 17; }},
      {"determination_order",
       [](EngineOptions* o, size_t) {
         o->output_order = OutputOrder::kDetermination;
       }},
      {"attached_halfway", [](EngineOptions*, size_t) {}, false, true},
      {"max_events",
       [](EngineOptions* o, size_t events) {
         o->limits.max_events = static_cast<int64_t>(events / 2);
       },
       true},
      {"max_depth", [](EngineOptions* o, size_t) { o->limits.max_depth = 4; },
       true},
      {"max_buffered_bytes",
       [](EngineOptions* o, size_t) { o->limits.max_buffered_bytes = 24; },
       true},
  };
  int watermark_runs = 0;
  for (uint64_t seed : {2, 6, 14}) {
    RandomTreeOptions tree;
    tree.max_elements = 150;
    tree.text_probability = 0.3;
    const std::vector<StreamEvent> events = GenerateToVector(
        [&](EventSink* s) { GenerateRandomTree(seed, tree, s); });
    for (const char* text : {"_*.a", "_*.a[c].b", "r._*.b[a]", "_*.a.>>b",
                             "_*.b.<<a", "_*.a[b.>>c]"}) {
      ExprPtr query = MustParseRpeq(text);
      auto cq = MustParseConjunctiveQuery(std::string("q(X) :- Root(") +
                                          text + ") X");
      // The unattached batch-1 run of the default options.
      int64_t no_watermarks = 0;
      SerializingResultSink plain_sink;
      SpexEngine plain(*query, &plain_sink);
      const RunOutcome unattached =
          Drive(&plain, plain_sink, events, 1, &no_watermarks);
      for (Config& config : configs) {
        RunOutcome per_event;  // the batch-1 outcome of this leg
        for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " " + text + " " +
                       config.name + " batch=" + std::to_string(batch));
          int64_t watermarks = 0;
          EngineOptions options;
          options.batch_size = static_cast<int>(batch);
          config.apply(&options, events.size());
          options.progress.callback = [&watermarks](const Watermark&) {
            ++watermarks;
          };
          const bool attach = config.attach_halfway;

          SerializingResultSink single_sink;
          SpexEngine single(*query, &single_sink, options);
          const RunOutcome expected = Drive(&single, single_sink, events,
                                            batch, &watermarks, attach);

          watermarks = 0;
          SerializingResultSink mq_sink;
          MultiQueryEngine mq(options);
          ASSERT_TRUE(mq.AddQuery(*query, &mq_sink).ok());
          mq.Finalize();
          EXPECT_EQ(Drive(&mq, mq_sink, events, batch, &watermarks, attach),
                    expected);

          watermarks = 0;
          SerializingResultSink cq_sink;
          ConjunctiveEngine conjunctive(*cq, {&cq_sink}, options);
          ASSERT_TRUE(conjunctive.ok()) << conjunctive.error();
          EXPECT_EQ(Drive(&conjunctive, cq_sink, events, batch, &watermarks,
                          attach),
                    expected);

          // Batching is a feeding granularity: everything but the
          // watermark count (checked once per batch) matches batch 1.
          if (batch == 1) per_event = expected;
          EXPECT_EQ(expected.fragments, per_event.fragments);
          EXPECT_EQ(expected.code, per_event.code);
          EXPECT_EQ(expected.certain, per_event.certain);
          EXPECT_EQ(expected.total_messages, per_event.total_messages);
          // Attached observation changes nothing the run computes.
          if (attach) {
            EXPECT_EQ(expected.fragments, unattached.fragments);
            EXPECT_EQ(expected.code, unattached.code);
            EXPECT_EQ(expected.certain, unattached.certain);
            EXPECT_EQ(expected.total_messages, unattached.total_messages);
          }

          if (expected.code != StatusCode::kOk) ++config.breaches;
          if (expected.watermarks > 0) ++watermark_runs;
        }
      }
    }
  }
  // Progress fires on every progress run; every limit leg really breaches,
  // and no other leg does.
  EXPECT_EQ(watermark_runs, 3 * 6 * 3);
  for (const Config& config : configs) {
    if (config.limit) {
      EXPECT_GT(config.breaches, 0) << config.name;
    } else {
      EXPECT_EQ(config.breaches, 0) << config.name;
    }
  }
}

}  // namespace
}  // namespace spex
