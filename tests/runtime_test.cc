// Tests for the concurrent runtime (src/runtime): CompiledQueryCache
// canonicalization / LRU behavior, EnginePool session correctness against
// the single-threaded engine (byte-for-byte, in document order), bounded
// queues, shutdown finalization, pool metrics — plus the debug-mode
// thread-affinity assertions.  The whole file is run under TSan in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine_pool.h"
#include "runtime/query_cache.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace spex {
namespace {

std::vector<StreamEvent> Doc(uint64_t seed, int max_depth = 6,
                             int64_t max_elements = 80) {
  RandomTreeOptions opts;
  opts.max_depth = max_depth;
  opts.max_children = 3;
  opts.max_elements = max_elements;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  return GenerateToVector(
      [&](EventSink* sink) { GenerateRandomTree(seed, opts, sink); });
}

// ---------------------------------------------------------------------------
// CompiledQueryCache

TEST(QueryCacheTest, CanonicalizesBeforeLookup) {
  CompiledQueryCache cache(8);
  std::string error;
  auto a = cache.Get("_*.a[b].c", &error);
  ASSERT_NE(a, nullptr) << error;
  // Different concrete spellings of the same query share one entry.
  auto b = cache.Get("_* . a[(b)] . (c)", &error);
  ASSERT_NE(b, nullptr) << error;
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed) {
  CompiledQueryCache cache(2);
  std::string error;
  auto a = cache.Get("a", &error);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(cache.Get("b", &error), nullptr);
  // Touch "a" so "b" becomes the LRU entry, then insert a third query.
  ASSERT_NE(cache.Get("a", &error), nullptr);
  ASSERT_NE(cache.Get("c", &error), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  // "a" survived (hit), "b" was evicted (miss rebuilds it).
  const int64_t hits_before = cache.hits();
  auto a2 = cache.Get("a", &error);
  EXPECT_EQ(a2.get(), a.get());
  EXPECT_EQ(cache.hits(), hits_before + 1);
  const int64_t misses_before = cache.misses();
  ASSERT_NE(cache.Get("b", &error), nullptr);
  EXPECT_EQ(cache.misses(), misses_before + 1);
  // The evicted template stayed usable through the caller's shared_ptr.
  EXPECT_EQ(a->canonical_text(), "a");
}

TEST(QueryCacheTest, FailuresAreReportedAndNotCached) {
  CompiledQueryCache cache(8);
  std::string error;
  EXPECT_EQ(cache.Get("a..b", &error), nullptr);
  EXPECT_NE(error.find("parse error"), std::string::npos) << error;
  // A validation (not syntax) failure: a preceding step inside a qualifier
  // body must be the body's last step.
  error.clear();
  EXPECT_EQ(cache.Get("a[<<b.c]", &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(QueryCacheTest, TemplateInstantiationMatchesDirectCompile) {
  CompiledQueryCache cache(8);
  std::string error;
  auto t = cache.Get("_*.a[b].c", &error);
  ASSERT_NE(t, nullptr) << error;
  const std::vector<StreamEvent> events = Doc(7);
  ExprPtr query = MustParseRpeq("_*.a[b].c");
  SerializingResultSink direct_sink;
  SpexEngine direct(*query, &direct_sink);
  SerializingResultSink template_sink;
  SpexEngine from_template(t, &template_sink);
  for (const StreamEvent& e : events) {
    direct.OnEvent(e);
    from_template.OnEvent(e);
  }
  EXPECT_EQ(template_sink.results(), direct_sink.results());
  EXPECT_EQ(from_template.ComputeStats().network_degree,
            direct.ComputeStats().network_degree);
  EXPECT_EQ(t->network_degree(), direct.ComputeStats().network_degree);
}

TEST(QueryCacheTest, ConcurrentGetsShareOneTemplate) {
  CompiledQueryCache cache(32);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const QueryTemplate>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&cache, &seen, i] {
        std::string error;
        for (int round = 0; round < 50; ++round) {
          seen[static_cast<size_t>(i)] = cache.Get("_*.a[b].c", &error);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_NE(seen[0], nullptr);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[size_t(i)], seen[0]);
  EXPECT_EQ(cache.size(), 1u);
  // Concurrent first misses may each build (by design — build runs outside
  // the lock) but every later round is a hit on the single resident entry.
  EXPECT_GE(cache.hits(), kThreads * 50 - kThreads);
}

// ---------------------------------------------------------------------------
// EnginePool

TEST(EnginePoolTest, SingleSessionMatchesSingleThreadedRun) {
  const std::vector<StreamEvent> events = Doc(3);
  ExprPtr query = MustParseRpeq("_*.a[b]");
  const std::vector<std::string> expected = EvaluateToStrings(*query, events);

  PoolOptions options;
  options.threads = 2;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*query, &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  session->Feed(events);
  session->Close();
  EXPECT_EQ(session->Wait(), expected);
  EXPECT_EQ(session->result_count(),
            static_cast<int64_t>(expected.size()));
  EXPECT_EQ(session->stats().events_processed,
            static_cast<int64_t>(events.size()));
}

// Pool sessions never scrape their engine's registry, so they never build
// its pull collectors (tens of thousands on a large population DAG): after
// a full document it holds only the always-on counters, and a later scrape
// still sees every family.
struct RegistryReport {
  size_t entries = 0;
  int64_t scraped_messages = -1;
  int64_t total_messages = -2;
};

// A session engine that reports at teardown — on its worker, once the pool
// is done with it, before Wait() returns.
class RegistryProbeEngine : public SpexEngine {
 public:
  RegistryProbeEngine(std::shared_ptr<const QueryTemplate> query_template,
                      ResultSink* sink, EngineOptions options,
                      RegistryReport* report)
      : SpexEngine(std::move(query_template), sink, std::move(options)),
        report_(report) {}
  ~RegistryProbeEngine() override {
    report_->entries = context().metrics.size();
    report_->scraped_messages =
        metrics().Collect().SumAll("spex_transducer_messages_in");
    report_->total_messages = ComputeStats().total_messages;
  }

 private:
  RegistryReport* report_;
};

class RegistryProbeTemplate : public SlotTemplate {
 public:
  RegistryProbeTemplate(std::shared_ptr<const QueryTemplate> inner,
                        RegistryReport* report)
      : inner_(std::move(inner)), report_(report) {}
  int slot_count() const override { return 1; }
  const std::string& slot_text(int) const override { return inner_->label(); }
  const std::string& label() const override { return inner_->label(); }
  std::unique_ptr<RunCore> Instantiate(
      const std::vector<ResultSink*>& slot_sinks,
      EngineOptions options) const override {
    return std::make_unique<RegistryProbeEngine>(inner_, slot_sinks[0],
                                                 std::move(options), report_);
  }

 private:
  std::shared_ptr<const QueryTemplate> inner_;
  RegistryReport* report_;
};

TEST(EnginePoolTest, SessionsBuildNoRegistryCollectors) {
  const std::vector<StreamEvent> events = Doc(5);
  std::string error;
  auto query = QueryTemplate::Build(*MustParseRpeq("_*.a[b].c"), &error);
  ASSERT_NE(query, nullptr) << error;
  RegistryReport report;
  EnginePool pool;
  auto session = pool.OpenSession(
      std::make_shared<RegistryProbeTemplate>(query, &report));
  session->Feed(events);
  session->Close();
  session->Wait();
  ASSERT_TRUE(session->status().ok());
  EXPECT_LE(report.entries, 2u);
  EXPECT_GT(report.total_messages, 0);
  EXPECT_EQ(report.scraped_messages, report.total_messages);
  EXPECT_EQ(report.total_messages, session->stats().total_messages);
}

// The PR-4 concurrency stress: 12 sessions (4 documents x 3 queries)
// through one shared CompiledQueryCache on 4 workers, each document split
// into small interleaved batches — every session's output must be
// byte-for-byte what the single-threaded engine produces for its
// (document, query) pair, in document order.  Several rounds shake out
// different interleavings; run under TSan in CI.
TEST(EnginePoolTest, ManySessionsSharedCacheMatchSingleThreaded) {
  const std::vector<std::string> queries = {"_*.a[b].c", "_*.(b|c)", "a._*"};
  std::vector<std::vector<StreamEvent>> docs;
  for (uint64_t seed = 0; seed < 4; ++seed) docs.push_back(Doc(seed));

  // Single-threaded ground truth.
  std::vector<std::vector<std::string>> expected;  // [doc * queries + q]
  for (const auto& doc : docs) {
    for (const std::string& q : queries) {
      ExprPtr query = MustParseRpeq(q);
      expected.push_back(EvaluateToStrings(*query, doc));
    }
  }

  CompiledQueryCache cache(16);
  for (int round = 0; round < 5; ++round) {
    PoolOptions options;
    options.threads = 4;
    options.queue_capacity = 4;
    EnginePool pool(options);
    std::vector<std::shared_ptr<StreamSession>> sessions;
    for (const auto& doc : docs) {
      auto batch =
          std::make_shared<const std::vector<StreamEvent>>(doc);
      for (const std::string& q : queries) {
        std::string error;
        auto session = pool.OpenSession(q, &cache, &error);
        ASSERT_NE(session, nullptr) << error;
        // Alternate whole-batch and chunked feeding so batch boundaries
        // land everywhere in the document.
        if ((sessions.size() + static_cast<size_t>(round)) % 2 == 0) {
          session->Feed(batch);
        } else {
          const size_t chunk = 7;
          for (size_t begin = 0; begin < doc.size(); begin += chunk) {
            const size_t end = std::min(doc.size(), begin + chunk);
            session->Feed(std::vector<StreamEvent>(
                doc.begin() + static_cast<std::ptrdiff_t>(begin),
                doc.begin() + static_cast<std::ptrdiff_t>(end)));
          }
        }
        session->Close();
        sessions.push_back(std::move(session));
      }
    }
    ASSERT_GE(sessions.size(), 8u);
    for (size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_EQ(sessions[i]->Wait(), expected[i])
          << "round " << round << " session " << i;
    }
  }
  // Every (doc, query) pair after the first use of each query hit the cache.
  EXPECT_EQ(cache.misses(), static_cast<int64_t>(queries.size()));
  EXPECT_GE(cache.hits(),
            static_cast<int64_t>(5 * docs.size() * queries.size() -
                                 queries.size()));
}

TEST(EnginePoolTest, BoundedQueueNeverExceedsCapacityAndBackpressures) {
  PoolOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  const std::vector<StreamEvent> doc = Doc(11, 8, 200);
  auto session = pool.OpenSession(t);
  // Many tiny batches from one producer against a capacity-2 queue.
  const size_t chunk = 5;
  for (size_t begin = 0; begin < doc.size(); begin += chunk) {
    const size_t end = std::min(doc.size(), begin + chunk);
    session->Feed(std::vector<StreamEvent>(
        doc.begin() + static_cast<std::ptrdiff_t>(begin),
        doc.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  session->Close();
  ExprPtr query = MustParseRpeq("_*.b");
  EXPECT_EQ(session->Wait(), EvaluateToStrings(*query, doc));
  // The bound held: the queue-depth high-water mark never passed capacity.
  const obs::MetricsSnapshot snap = pool.metrics().Collect();
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "spex_pool_queue_depth") {
      EXPECT_LE(s.max, static_cast<int64_t>(options.queue_capacity));
    }
  }
}

TEST(EnginePoolTest, MetricsAreConsistentAfterDrain) {
  PoolOptions options;
  options.threads = 3;
  EnginePool pool(options);
  CompiledQueryCache cache(8);
  cache.RegisterCollectors(&pool.metrics());
  const std::vector<StreamEvent> doc = Doc(5);
  std::vector<std::shared_ptr<StreamSession>> sessions;
  constexpr int kSessions = 9;
  for (int i = 0; i < kSessions; ++i) {
    std::string error;
    auto session = pool.OpenSession("_*.c", &cache, &error);
    ASSERT_NE(session, nullptr) << error;
    session->Feed(doc);
    session->Close();
    sessions.push_back(std::move(session));
  }
  int64_t results = 0;
  for (auto& s : sessions) {
    s->Wait();
    results += s->result_count();
  }
  const obs::MetricsSnapshot snap = pool.metrics().Collect();
  EXPECT_EQ(snap.Value("spex_pool_workers"), 3);
  EXPECT_EQ(snap.Value("spex_pool_sessions_opened"), kSessions);
  EXPECT_EQ(snap.Value("spex_pool_sessions_finished"), kSessions);
  EXPECT_EQ(snap.Value("spex_pool_batches_submitted"),
            snap.Value("spex_pool_batches_completed"));
  EXPECT_EQ(snap.Value("spex_pool_events_processed"),
            static_cast<int64_t>(kSessions * doc.size()));
  EXPECT_EQ(snap.Value("spex_pool_results_total"), results);
  EXPECT_EQ(snap.Value("spex_query_cache_misses"), 1);
  EXPECT_EQ(snap.Value("spex_query_cache_hits"), kSessions - 1);
}

TEST(EnginePoolTest, ShutdownFinalizesUnclosedSessions) {
  std::shared_ptr<StreamSession> session;
  const std::vector<StreamEvent> doc = Doc(2);
  {
    PoolOptions options;
    options.threads = 2;
    EnginePool pool(options);
    std::string error;
    auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
    ASSERT_NE(t, nullptr) << error;
    session = pool.OpenSession(t);
    session->Feed(doc);
    // No Close(): pool destruction must drain the queue and finalize the
    // session's engine on its own worker.
  }
  ExprPtr query = MustParseRpeq("_*.b");
  EXPECT_EQ(session->Wait(), EvaluateToStrings(*query, doc));
}

TEST(EnginePoolTest, SessionsFromManyProducerThreads) {
  PoolOptions options;
  options.threads = 4;
  options.queue_capacity = 2;
  EnginePool pool(options);
  CompiledQueryCache cache(8);
  const auto doc_a = Doc(21);
  const auto doc_b = Doc(22);
  ExprPtr query = MustParseRpeq("_*.a[b]");
  const std::vector<std::string> expect_a = EvaluateToStrings(*query, doc_a);
  const std::vector<std::string> expect_b = EvaluateToStrings(*query, doc_b);
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto& doc = p % 2 == 0 ? doc_a : doc_b;
      const auto& expected = p % 2 == 0 ? expect_a : expect_b;
      for (int round = 0; round < 3; ++round) {
        std::string error;
        auto session = pool.OpenSession("_*.a[b]", &cache, &error);
        ASSERT_NE(session, nullptr) << error;
        session->Feed(doc);
        session->Close();
        EXPECT_EQ(session->Wait(), expected) << "producer " << p;
      }
    });
  }
  for (std::thread& t : producers) t.join();
}

// ---------------------------------------------------------------------------
// Thread-affinity assertions (debug builds only; compiled out in NDEBUG).
// TSan intercepts abort() with its own report, so the death tests only run
// ---------------------------------------------------------------------------
// Fault isolation (DESIGN.md §10)

// A session that breaches its limits is quarantined and reports a structured
// partial result; other sessions on the same pool are untouched.
TEST(EnginePoolTest, BreachedSessionIsQuarantinedOthersKeepRunning) {
  PoolOptions options;
  options.threads = 2;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  const std::vector<StreamEvent> doc = Doc(3);

  auto failing = pool.OpenSession(t);
  EngineLimits limits;
  limits.max_events = 5;  // the random doc has far more events
  failing->OverrideLimits(limits);
  auto healthy = pool.OpenSession(t);

  failing->Feed(doc);
  healthy->Feed(doc);
  failing->Close();
  healthy->Close();

  failing->Wait();
  EXPECT_EQ(failing->status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(failing->truncated());
  EXPECT_LE(failing->certain_result_count(), failing->result_count());

  ExprPtr query = MustParseRpeq("_*.b");
  EXPECT_EQ(healthy->Wait(), EvaluateToStrings(*query, doc));
  EXPECT_TRUE(healthy->status().ok());
  EXPECT_FALSE(healthy->truncated());

  const obs::MetricsSnapshot snap = pool.metrics().Collect();
  int64_t failed_resource_exhausted = -1;
  for (const obs::MetricSample& sample : snap.samples) {
    if (sample.name == "spex_pool_sessions_failed" &&
        sample.labels ==
            obs::Labels{{"reason", "resource_exhausted"}}) {
      failed_resource_exhausted = sample.value;
    }
  }
  EXPECT_EQ(failed_resource_exhausted, 1);
}

// Satellite regression: Wait() on a failed session must be released by the
// quarantine itself — no Close() required, and it must never hang.
TEST(EnginePoolTest, WaitWithoutCloseReturnsAfterFailure) {
  PoolOptions options;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  EngineLimits limits;
  limits.max_events = 3;
  session->OverrideLimits(limits);
  session->Feed(Doc(4));
  // No Close(): the worker's quarantine finalizes the session and releases
  // the waiter.
  session->Wait();
  EXPECT_EQ(session->status().code(), StatusCode::kResourceExhausted);
}

// Satellite regression: Close() after the failure already finalized the
// session is an idempotent no-op (and a second Wait sees the same state).
TEST(EnginePoolTest, CloseAfterFailureIsIdempotent) {
  PoolOptions options;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("_*.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  EngineLimits limits;
  limits.max_events = 3;
  session->OverrideLimits(limits);
  session->Feed(Doc(4));
  session->Wait();  // quarantine released it
  const Status first = session->status();
  session->Close();
  session->Close();  // idempotent
  session->Wait();
  EXPECT_EQ(session->status(), first);
  EXPECT_EQ(session->status().code(), StatusCode::kResourceExhausted);
}

// Abort() seals the partial stream with the producer's status: the certain
// prefix stays, the open elements are closed virtually.
TEST(EnginePoolTest, AbortSealsPartialStreamWithCallerStatus) {
  PoolOptions options;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("a.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  auto session = pool.OpenSession(t);
  // A prefix: <a><b/><b> ... never closed.
  session->Feed(std::vector<StreamEvent>{
      StreamEvent::StartDocument(), StreamEvent::StartElement("a"),
      StreamEvent::StartElement("b"), StreamEvent::EndElement("b"),
      StreamEvent::StartElement("b")});
  session->Abort(Status::MalformedInput("client hung up"));
  const std::vector<std::string>& results = session->Wait();
  EXPECT_EQ(session->status().code(), StatusCode::kMalformedInput);
  EXPECT_EQ(session->status().message(), "client hung up");
  EXPECT_TRUE(session->truncated());
  // The virtual close seals the dangling <b>: both children of a match a.b
  // on the closed document, but only the first was complete before the
  // truncation point — the second is speculative.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], "<b></b>");
  EXPECT_EQ(results[1], "<b></b>");
  EXPECT_EQ(session->certain_result_count(), 1);
}

// Pool teardown with an incomplete, unclosed stream: the session is sealed
// as kCancelled rather than left hanging (complete streams stay kOk — see
// ShutdownFinalizesUnclosedSessions above).
TEST(EnginePoolTest, ShutdownCancelsIncompleteStreams) {
  std::shared_ptr<StreamSession> session;
  {
    EnginePool pool(PoolOptions{});
    std::string error;
    auto t = QueryTemplate::Build(*MustParseRpeq("a.b"), &error);
    ASSERT_NE(t, nullptr) << error;
    session = pool.OpenSession(t);
    session->Feed(std::vector<StreamEvent>{StreamEvent::StartDocument(),
                                           StreamEvent::StartElement("a"),
                                           StreamEvent::StartElement("b")});
    // No Close(), no end-document: destruction must seal it.
  }
  session->Wait();
  EXPECT_EQ(session->status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(session->truncated());
  EXPECT_EQ(session->result_count(), 1);  // the virtually sealed <b>
  EXPECT_EQ(session->certain_result_count(), 0);
}

// Least-loaded pinning: a worker that still holds an unfinished session is
// not picked while another worker is idle (round-robin would put C next to
// A here).
TEST(EnginePoolTest, PinsToLeastLoadedWorker) {
  PoolOptions options;
  options.threads = 2;
  EnginePool pool(options);
  std::string error;
  auto t = QueryTemplate::Build(*MustParseRpeq("a.b"), &error);
  ASSERT_NE(t, nullptr) << error;
  auto a = pool.OpenSession(t);
  auto b = pool.OpenSession(t);
  EXPECT_NE(a->worker(), b->worker());
  b->Close();
  b->Wait();
  auto c = pool.OpenSession(t);
  EXPECT_NE(c->worker(), a->worker());
  a->Close();
  c->Close();
  a->Wait();
  c->Wait();
}

// Fragments a drainer took, per slot, in the order taken.
struct Drained {
  std::vector<std::vector<std::string>> slots;
  bool all_certain = true;
  size_t before_close = 0;  // fragments taken before Close() was sent
};

// Byte-feeds `xml` in `chunk`-byte pieces, draining with TakeFragments as
// it goes, then closes and drains until sealed.
Drained FeedBytesAndDrain(StreamSession* session, const std::string& xml,
                          size_t chunk) {
  Drained out;
  out.slots.resize(static_cast<size_t>(session->slot_count()));
  std::vector<StreamSession::Fragment> taken;
  auto take = [&] {
    taken.clear();
    const bool sealed = session->TakeFragments(&taken);
    for (StreamSession::Fragment& f : taken) {
      out.all_certain &= f.certain;
      out.slots[static_cast<size_t>(f.slot)].push_back(std::move(f.xml));
    }
    return sealed;
  };
  for (size_t begin = 0; begin < xml.size(); begin += chunk) {
    session->FeedBytes(xml.substr(begin, chunk));
    take();
  }
  for (const auto& slot : out.slots) out.before_close += slot.size();
  session->Close();
  while (!take()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return out;
}

// One hand-off path: a byte-fed session (the worker parses) returns exactly
// what an event-fed one does, whether nobody drains it (Wait/slot_results)
// or a drainer takes every fragment as it is handed off — for single
// queries and a population, both output orders, engine batches 1/7/64 and
// byte chunks from 1 to the whole document.
TEST(EnginePoolTest, ByteFedSessionsMatchEventFedDrainedOrNot) {
  const std::vector<std::string> queries = {"_*.a[b].c", "_*._", "a._*.c",
                                            "_*.b"};
  std::vector<std::string> docs;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    docs.push_back(EventsToXml(Doc(seed)));
  }
  CompiledQueryCache cache(16);
  std::vector<std::shared_ptr<const SlotTemplate>> templates;
  for (const std::string& q : queries) {
    templates.push_back(cache.Get(q).value());
  }
  templates.push_back(cache.GetMulti(queries).value());

  for (OutputOrder order :
       {OutputOrder::kDocumentStart, OutputOrder::kDetermination}) {
    for (int batch : {1, 7, 64}) {
      PoolOptions options;
      options.threads = 2;
      options.engine.batch_size = batch;
      options.engine.output_order = order;
      EnginePool pool(options);
      for (const std::string& xml : docs) {
        std::vector<StreamEvent> events;
        ASSERT_TRUE(ParseXmlToEvents(xml, &events));
        for (const auto& t : templates) {
          SCOPED_TRACE(t->label() + " batch " + std::to_string(batch));
          auto by_events = pool.OpenSession(t);
          by_events->Feed(events);
          by_events->Close();
          by_events->Wait();

          auto by_bytes = pool.OpenSession(t);
          for (size_t begin = 0; begin < xml.size(); begin += 5) {
            by_bytes->FeedBytes(xml.substr(begin, 5));
          }
          by_bytes->Close();
          by_bytes->Wait();
          EXPECT_TRUE(by_bytes->status().ok()) << by_bytes->status().ToString();
          EXPECT_EQ(by_bytes->result_count(), by_events->result_count());
          for (int slot = 0; slot < t->slot_count(); ++slot) {
            EXPECT_EQ(by_bytes->slot_results(slot),
                      by_events->slot_results(slot));
            EXPECT_EQ(by_bytes->slot_certain_count(slot),
                      by_events->slot_certain_count(slot));
          }

          for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, xml.size()}) {
            auto drained = pool.OpenSession(t);
            const Drained got = FeedBytesAndDrain(drained.get(), xml, chunk);
            EXPECT_TRUE(drained->status().ok());
            EXPECT_TRUE(got.all_certain);
            for (int slot = 0; slot < t->slot_count(); ++slot) {
              EXPECT_EQ(got.slots[static_cast<size_t>(slot)],
                        by_events->slot_results(slot))
                  << "chunk " << chunk;
              EXPECT_TRUE(drained->slot_results(slot).empty());
            }
            EXPECT_EQ(drained->result_count(), by_events->result_count());
          }
        }
      }
    }
  }
}

// Fragments are handed off while the document still streams: a drainer
// sees the first fragment before the session is closed.
TEST(EnginePoolTest, FragmentsHandedOffBeforeEndOfStream) {
  PoolOptions options;
  EnginePool pool(options);
  CompiledQueryCache cache(4);
  auto session = pool.OpenSession(cache.Get("_*.b").value());
  // The callback may run after this test's frame is gone (the worker wakes
  // once more at seal), so it owns what it touches.
  struct Signal {
    std::mutex mu;
    std::condition_variable cv;
    int wakes = 0;
  };
  auto signal = std::make_shared<Signal>();
  session->SetReadyCallback([signal] {
    std::lock_guard<std::mutex> lock(signal->mu);
    ++signal->wakes;
    signal->cv.notify_all();
  });
  session->FeedBytes("<a><b>early</b><c>");
  std::vector<StreamSession::Fragment> taken;
  {
    std::unique_lock<std::mutex> lock(signal->mu);
    ASSERT_TRUE(signal->cv.wait_for(lock, std::chrono::seconds(10),
                                    [&] { return signal->wakes > 0; }));
  }
  EXPECT_FALSE(session->TakeFragments(&taken));
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].xml, "<b>early</b>");
  EXPECT_TRUE(taken[0].certain);
  session->FeedBytes("</c><b>late</b></a>");
  session->Close();
  session->Wait();
  taken.clear();
  EXPECT_TRUE(session->TakeFragments(&taken));
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].xml, "<b>late</b>");
  EXPECT_EQ(session->result_count(), 2);
  EXPECT_EQ(session->certain_result_count(), 2);
}

// A parse error on the worker seals the session exactly as an Abort with
// the parser's status after feeding the parsed prefix; a parser limit is
// kResourceExhausted; an aborted byte-fed session never runs Finish().
TEST(EnginePoolTest, ByteFedParseFailuresSealLikeAbort) {
  CompiledQueryCache cache(4);
  auto t = cache.Get("a.b").value();
  const std::string bad = "<a><b></b><b><c></wrong>";

  PoolOptions options;
  EnginePool pool(options);
  auto by_bytes = pool.OpenSession(t);
  by_bytes->FeedBytes(bad);
  by_bytes->Close();
  const std::vector<std::string> got = by_bytes->Wait();

  std::vector<StreamEvent> prefix;
  const Status parse = ParseXmlToEvents(bad, &prefix, XmlParserOptions{});
  ASSERT_EQ(parse.code(), StatusCode::kMalformedInput);
  auto by_events = pool.OpenSession(t);
  by_events->Feed(prefix);
  by_events->Abort(parse);
  EXPECT_EQ(got, by_events->Wait());
  EXPECT_EQ(by_bytes->status().code(), StatusCode::kMalformedInput);
  EXPECT_EQ(by_bytes->status().message(), parse.message());
  EXPECT_EQ(by_bytes->certain_result_count(),
            by_events->certain_result_count());
  EXPECT_EQ(by_bytes->certain_result_count(), 1);
  EXPECT_TRUE(by_bytes->truncated());

  PoolOptions limited;
  limited.parser.max_depth = 2;
  EnginePool limited_pool(limited);
  auto deep = limited_pool.OpenSession(t);
  deep->FeedBytes("<a><b></b><b><c>x</c></b></a>");
  deep->Close();
  deep->Wait();
  EXPECT_EQ(deep->status().code(), StatusCode::kResourceExhausted)
      << deep->status().ToString();
  EXPECT_EQ(deep->certain_result_count(), 1);

  auto cut = pool.OpenSession(t);
  cut->FeedBytes("<a><b></b>");
  cut->Abort(Status::Cancelled("client closed mid-document"));
  EXPECT_EQ(cut->Wait(), std::vector<std::string>{"<b></b>"});
  EXPECT_EQ(cut->status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cut->certain_result_count(), 1);
}

// After the exception barrier nothing more is handed off; fragments taken
// before it stay taken, and a session nobody drained reports no results
// (its partials are discarded, as before the hand-off existed).
TEST(EnginePoolTest, ExceptionBarrierStopsHandOff) {
  std::string xml = "<r>";
  for (int i = 0; i < 20; ++i) xml += "<a><b>" + std::to_string(i) + "</b></a>";
  xml += "</r>";
  std::vector<StreamEvent> events;
  ASSERT_TRUE(ParseXmlToEvents(xml, &events));

  PoolOptions options;
  options.engine.progress.every_events = 1;
  options.engine.progress.callback = [](const Watermark& w) {
    if (w.events >= 60) throw std::runtime_error("injected");
  };
  EnginePool pool(options);
  CompiledQueryCache cache(4);
  auto t = cache.Get("_*.b").value();

  auto drained = pool.OpenSession(t);
  auto undrained = pool.OpenSession(t);
  for (StreamSession* s : {drained.get(), undrained.get()}) {
    for (size_t begin = 0; begin < 50; begin += 10) {
      s->Feed(std::vector<StreamEvent>(events.begin() + begin,
                                       events.begin() + begin + 10));
    }
  }
  std::vector<StreamSession::Fragment> before;
  while (before.empty()) {
    drained->TakeFragments(&before);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (StreamSession* s : {drained.get(), undrained.get()}) {
    s->Feed(std::vector<StreamEvent>(events.begin() + 50, events.end()));
    s->Close();
  }
  std::vector<StreamSession::Fragment> after;
  while (!drained->TakeFragments(&after)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(drained->status().code(), StatusCode::kInternal);
  for (const auto& f : before) EXPECT_TRUE(f.certain);
  // Only what the last hand-off before the failing batch already moved
  // may still arrive; no later fragment does.
  EXPECT_LE(before.size() + after.size(), 10u);
  EXPECT_TRUE(drained->Wait().empty());
  EXPECT_EQ(drained->result_count(),
            static_cast<int64_t>(before.size() + after.size()));

  EXPECT_TRUE(undrained->Wait().empty());
  EXPECT_EQ(undrained->status().code(), StatusCode::kInternal);
  EXPECT_EQ(undrained->result_count(), 0);
  EXPECT_EQ(undrained->certain_result_count(), 0);
}

TEST(QueryCacheTest, StatusOverloadClassifiesParseErrors) {
  CompiledQueryCache cache(4);
  StatusOr<std::shared_ptr<const QueryTemplate>> bad = cache.Get("a..b");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kMalformedInput);
  EXPECT_FALSE(bad.status().message().empty());
  StatusOr<std::shared_ptr<const QueryTemplate>> good = cache.Get("a.b");
  ASSERT_TRUE(good.ok());
  EXPECT_NE(*good, nullptr);
}

// in non-TSan debug builds (the asan preset covers them in CI).

#if defined(__SANITIZE_THREAD__)
#define SPEX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPEX_TSAN 1
#endif
#endif

#if !defined(NDEBUG) && !defined(SPEX_TSAN)

using ThreadAffinityDeathTest = ::testing::Test;

TEST(ThreadAffinityDeathTest, CrossThreadDeliverAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SerializingResultSink sink;
        ExprPtr query = MustParseRpeq("a.b");
        SpexEngine engine(*query, &sink);
        // Binds the network's affinity to this thread...
        engine.OnEvent(StreamEvent::StartDocument());
        // ...so a delivery from any other thread must abort.  EndElement
        // skips symbol interning, reaching Network::DeliverBatch directly.
        std::thread other(
            [&engine] { engine.OnEvent(StreamEvent::EndElement("a")); });
        other.join();
      },
      "SPEX_DCHECK_THREAD: spex::Network");
}

TEST(ThreadAffinityDeathTest, CrossThreadInternAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SymbolTable table;
        table.Intern("a");  // binds to this thread
        std::thread other([&table] { table.Intern("b"); });
        other.join();
      },
      "SPEX_DCHECK_THREAD: spex::SymbolTable");
}

TEST(ThreadAffinityDeathTest, StampedEventsRejectedByPoolSessions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PoolOptions options;
        EnginePool pool(options);
        std::string error;
        auto t = QueryTemplate::Build(*MustParseRpeq("a"), &error);
        auto session = pool.OpenSession(t);
        // Events stamped by some other run's symbol table must not enter a
        // pool session (its engine owns a private table).
        StreamEvent stamped = StreamEvent::StartElement("a");
        stamped.label = 42;
        session->Feed(std::vector<StreamEvent>{
            StreamEvent::StartDocument(), stamped});
        session->Close();
        session->Wait();
      },
      "foreign symbol stamp");
}

#endif  // !NDEBUG && !SPEX_TSAN

}  // namespace
}  // namespace spex
