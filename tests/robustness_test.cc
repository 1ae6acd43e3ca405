// Robustness tests: malformed / mutated inputs must produce errors, never
// crashes or hangs — for the XML parser, the query parsers and the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "cq/conjunctive.h"
#include "obs/log.h"
#include "rpeq/parser.h"
#include "rpeq/xpath.h"
#include "runtime/engine_pool.h"
#include "runtime/fault_injector.h"
#include "runtime/query_cache.h"
#include "runtime/query_registry.h"
#include "spex/engine.h"
#include "spex/multi_query.h"
#include "xml/content_model.h"
#include "xml/dom.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace spex {
namespace {

constexpr char kBaseDoc[] =
    "<catalog><book id=\"1\"><title>T&amp;T</title><!--c--><author>A"
    "</author></book><book><![CDATA[x]]></book></catalog>";

class XmlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(XmlFuzzTest, MutatedDocumentsNeverCrashTheParser) {
  std::mt19937_64 rng(GetParam());
  std::string doc = kBaseDoc;
  static const char kBytes[] = "<>/&;\"'abc $!-[]?=";
  for (int round = 0; round < 200; ++round) {
    std::string mutated = doc;
    int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:  // replace
          mutated[pos] = kBytes[rng() % (sizeof(kBytes) - 1)];
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        case 2:  // insert
          mutated.insert(pos, 1, kBytes[rng() % (sizeof(kBytes) - 1)]);
          break;
      }
    }
    if (mutated.empty()) continue;
    RecordingEventSink sink;
    XmlParser parser(&sink);
    bool ok = parser.Parse(mutated);
    if (ok) {
      // Whatever parsed must be a well-formed stream.
      std::string error;
      EXPECT_TRUE(ValidateStream(sink.events(), &error))
          << error << "\ninput: " << mutated;
    } else {
      EXPECT_FALSE(parser.error().empty());
    }
  }
}

TEST_P(XmlFuzzTest, MutatedDocumentsNeverCrashTheEngine) {
  std::mt19937_64 rng(GetParam() + 5000);
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  for (int round = 0; round < 50; ++round) {
    std::string mutated = kBaseDoc;
    for (int m = 0; m < 3; ++m) {
      size_t pos = rng() % mutated.size();
      mutated[pos] = static_cast<char>('!' + rng() % 90);
    }
    CountingResultSink sink;
    SpexEngine engine(*query, &sink);
    XmlParser parser(&engine);
    (void)parser.Parse(mutated);  // either outcome is fine; no crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest, ::testing::Range(0, 8));

TEST(QueryFuzzTest, RandomQueryStringsNeverCrashTheParsers) {
  std::mt19937_64 rng(99);
  static const char kChars[] = "ab_.*+?|&[]()<>/:= x";
  for (int round = 0; round < 2000; ++round) {
    std::string q;
    int len = 1 + static_cast<int>(rng() % 24);
    for (int i = 0; i < len; ++i) q += kChars[rng() % (sizeof(kChars) - 1)];
    ParseResult r = ParseRpeq(q);
    if (r.ok()) {
      // Anything that parses must print and re-parse to an equal AST...
      ParseResult again = ParseRpeq(r.expr->ToString());
      ASSERT_TRUE(again.ok()) << q << " -> " << r.expr->ToString();
      EXPECT_TRUE(r.expr->Equals(*again.expr)) << q;
      // ...and, if it validates, compile and run without crashing.
      std::string verror;
      if (ValidateQuery(*r.expr, &verror)) {
        CountingResultSink sink;
        SpexEngine engine(*r.expr, &sink);
        XmlParser parser(&engine);
        parser.Parse("<a><b/><a><b/></a></a>");
      }
    }
    ParseResult x = ParseXPath(q);
    if (x.ok()) {
      EXPECT_FALSE(x.expr->ToString().empty());
    }
  }
}

TEST(QueryFuzzTest, RandomCqStringsNeverCrash) {
  std::mt19937_64 rng(7);
  static const char kChars[] = "XqRoot(),:-_.*ab ";
  for (int round = 0; round < 1000; ++round) {
    std::string q;
    int len = 1 + static_cast<int>(rng() % 40);
    for (int i = 0; i < len; ++i) q += kChars[rng() % (sizeof(kChars) - 1)];
    CqParseResult r = ParseConjunctiveQuery(q);
    if (r.ok()) {
      EXPECT_FALSE(r.query->ToString().empty());
    } else {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

TEST(SchemaFuzzTest, RandomSchemasNeverCrash) {
  std::mt19937_64 rng(13);
  static const char kChars[] = "ab=,|*+?()# \nTEXTANYroot";
  for (int round = 0; round < 1000; ++round) {
    std::string text;
    int len = 1 + static_cast<int>(rng() % 60);
    for (int i = 0; i < len; ++i) text += kChars[rng() % (sizeof(kChars) - 1)];
    Schema schema;
    std::string error;
    if (ParseSchema(text, &schema, &error)) {
      // A parsed schema must be usable.
      std::vector<StreamEvent> events = {
          StreamEvent::StartDocument(), StreamEvent::StartElement("a"),
          StreamEvent::EndElement("a"), StreamEvent::EndDocument()};
      (void)ValidateEvents(schema, events);
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(RobustnessTest, DeeplyNestedDocumentDoesNotOverflow) {
  // 100k-deep documents exercise stack discipline in parser and engine
  // (both are iterative; only the DOM serializer recurses, so it is not
  // used here).
  std::string xml;
  const int depth = 100000;
  for (int i = 0; i < depth; ++i) xml += "<a>";
  for (int i = 0; i < depth; ++i) xml += "</a>";
  ExprPtr query = MustParseRpeq("a.a.a");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  XmlParser parser(&engine);
  ASSERT_TRUE(parser.Parse(xml)) << parser.error();
  EXPECT_EQ(sink.results(), 1);
  EXPECT_EQ(engine.ComputeStats().max_depth_stack, depth + 1);
}

TEST(RobustnessTest, PathologicalTagSoup) {
  const char* cases[] = {
      "", "<", ">", "</>", "<a", "<a/", "<<a>>", "<a></a",
      "<a b=></a>", "<a><![CDATA[</a>", "<!-->", "<?", "<!DOCTYPE",
      "<a>&#xFFFFFFFF;</a>", "<a>&#0;</a>", "< a></a>", "<a ></a >",
  };
  for (const char* c : cases) {
    RecordingEventSink sink;
    XmlParser parser(&sink);
    bool ok = parser.Parse(c);
    if (!ok) {
      EXPECT_FALSE(parser.error().empty()) << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Resource governor (DESIGN.md §10)

std::vector<StreamEvent> MustEvents(const std::string& xml) {
  std::vector<StreamEvent> events;
  Status status = ParseXmlToEvents(xml, &events, XmlParserOptions{});
  EXPECT_TRUE(status.ok()) << status.ToString();
  return events;
}

// Seals a stream prefix under closed-world semantics: synthesizes end tags
// for every open element plus the end-document message — the same virtual
// closing SpexEngine::FinalizeTruncated performs internally.
std::vector<StreamEvent> CloseVirtually(std::vector<StreamEvent> events) {
  if (!events.empty() && events.back().kind == EventKind::kEndDocument) {
    return events;
  }
  std::vector<std::string> open;
  for (const StreamEvent& event : events) {
    if (event.kind == EventKind::kStartElement) {
      open.push_back(event.name);
    } else if (event.kind == EventKind::kEndElement) {
      open.pop_back();
    }
  }
  while (!open.empty()) {
    events.push_back(StreamEvent::EndElement(open.back()));
    open.pop_back();
  }
  events.push_back(StreamEvent::EndDocument());
  return events;
}

// DOM-oracle results for a (possibly incomplete) stream prefix: what a full
// evaluation of the virtually closed prefix yields.  Empty when the prefix
// never opened a root element (nothing to evaluate).
std::vector<std::string> OracleFor(const Expr& query,
                                   const std::vector<StreamEvent>& fed) {
  bool has_root = false;
  for (const StreamEvent& event : fed) {
    if (event.kind == EventKind::kStartElement) {
      has_root = true;
      break;
    }
  }
  if (!has_root) return {};
  Document doc;
  std::string error;
  EXPECT_TRUE(EventsToDocument(CloseVirtually(fed), &doc, &error)) << error;
  return DomEvaluateToStrings(query, doc);
}

std::vector<StreamEvent> RandomDoc(uint64_t seed, int64_t max_elements = 60) {
  RandomTreeOptions opts;
  opts.max_depth = 6;
  opts.max_children = 3;
  opts.max_elements = max_elements;
  opts.labels = {"a", "b", "c"};
  opts.root_label = "a";
  return GenerateToVector(
      [&](EventSink* sink) { GenerateRandomTree(seed, opts, sink); });
}

TEST(GovernorTest, MaxEventsBreachPoisonsTheRun) {
  ExprPtr query = MustParseRpeq("_*.b");
  const std::vector<StreamEvent> events =
      MustEvents("<a><b></b><b></b><b></b><b></b></a>");
  EngineOptions options;
  options.limits.max_events = 4;
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  for (const StreamEvent& event : events) engine.OnEvent(event);
  EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(engine.status().message().empty());
  EXPECT_FALSE(engine.stream_complete());
  // Poisoned: the drop happened before the stream's end.
  EXPECT_LT(engine.ComputeStats().events_processed,
            static_cast<int64_t>(events.size()));
  engine.FinalizeTruncated();
  EXPECT_TRUE(engine.truncated());
  EXPECT_TRUE(engine.stream_complete());
  // Idempotent, and sealing does not clear the breach.
  EXPECT_EQ(engine.FinalizeTruncated().code(),
            StatusCode::kResourceExhausted);
}

TEST(GovernorTest, MaxDepthBreachPoisonsTheRun) {
  std::string xml;
  for (int i = 0; i < 32; ++i) xml += "<a>";
  for (int i = 0; i < 32; ++i) xml += "</a>";
  ExprPtr query = MustParseRpeq("a.a");
  EngineOptions options;
  options.limits.max_depth = 8;
  CountingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  XmlParser parser(&engine);
  // The parser itself is fine with the depth; the engine's governor trips.
  EXPECT_TRUE(parser.Parse(xml)) << parser.error();
  EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, DeadlineBreachReportsDeadlineExceeded) {
  ExprPtr query = MustParseRpeq("a.b");
  EngineOptions options;
  options.limits.deadline_ms = 1;
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (const StreamEvent& event : MustEvents("<a><b></b></a>")) {
    engine.OnEvent(event);
  }
  EXPECT_EQ(engine.status().code(), StatusCode::kDeadlineExceeded);
  engine.FinalizeTruncated();
  EXPECT_TRUE(engine.truncated());
}

TEST(GovernorTest, BufferedBytesBreachPoisonsTheRun) {
  // The qualifier [b] stays undecided until the trailing <b>, so every c
  // candidate buffers its fragment — a tiny output budget trips well before
  // the qualifier would have resolved.
  ExprPtr query = MustParseRpeq("a[b].c");
  EngineOptions options;
  options.limits.max_buffered_bytes = 32;
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  for (const StreamEvent& event :
       MustEvents("<a><c>some buffered text</c><c>more</c><b></b></a>")) {
    engine.OnEvent(event);
  }
  EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
  engine.FinalizeTruncated();
  // The breach hit before <b> was seen: under closed-world sealing the
  // qualifier is false and nothing was certain.
  EXPECT_EQ(engine.certain_result_count(), 0);
}

TEST(GovernorTest, FormulaBytesBreachPoisonsTheRun) {
  // The unresolved qualifier [b] keeps formula nodes live while <a> is open.
  ExprPtr query = MustParseRpeq("_*.a[b].c");
  EngineOptions options;
  options.limits.max_formula_bytes = 1;
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  for (const StreamEvent& event :
       MustEvents("<a><c></c><c></c><c></c></a>")) {
    engine.OnEvent(event);
  }
  EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, UnsetLimitsLeaveResultsUntouched) {
  ExprPtr query = MustParseRpeq("_*.a[b]");
  const std::vector<StreamEvent> events = RandomDoc(7);
  const std::vector<std::string> expected = EvaluateToStrings(*query, events);
  EngineOptions options;  // no limits, no tracking: the unguarded hot path
  SerializingResultSink sink;
  SpexEngine engine(*query, &sink, options);
  for (const StreamEvent& event : events) engine.OnEvent(event);
  EXPECT_TRUE(engine.status().ok());
  EXPECT_FALSE(engine.truncated());
  EXPECT_TRUE(engine.stream_complete());
  EXPECT_EQ(sink.results(), expected);
  EXPECT_EQ(engine.certain_result_count(), engine.result_count());
}

// The central truncation contract: sealing an arbitrary stream prefix yields
// exactly the DOM evaluation of the virtually closed prefix, and the results
// that were already out before sealing are a prefix of the full run's output.
TEST(GovernorTest, FinalizeTruncatedMatchesClosedWorldOracle) {
  const std::vector<StreamEvent> events = RandomDoc(11);
  for (const char* query_text : {"_*.b", "a._", "_*.a[b]", "a.b"}) {
    ExprPtr query = MustParseRpeq(query_text);
    const std::vector<std::string> full = EvaluateToStrings(*query, events);
    for (size_t cut = 1; cut < events.size(); cut += 3) {
      EngineOptions options;
      options.track_open_elements = true;
      SerializingResultSink sink;
      SpexEngine engine(*query, &sink, options);
      for (size_t i = 0; i < cut; ++i) engine.OnEvent(events[i]);
      engine.FinalizeTruncated();
      const std::vector<StreamEvent> fed(events.begin(),
                                         events.begin() +
                                             static_cast<ptrdiff_t>(cut));
      EXPECT_EQ(sink.results(), OracleFor(*query, fed))
          << query_text << " cut at " << cut;
      const int64_t certain = engine.certain_result_count();
      ASSERT_LE(certain, static_cast<int64_t>(sink.results().size()));
      ASSERT_LE(certain, static_cast<int64_t>(full.size()))
          << query_text << " cut at " << cut;
      for (int64_t i = 0; i < certain; ++i) {
        EXPECT_EQ(sink.results()[static_cast<size_t>(i)],
                  full[static_cast<size_t>(i)])
            << query_text << " cut at " << cut << " certain #" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection

TEST(FaultInjectorTest, ScheduleIsAPureFunctionOfSeed) {
  FaultInjector a(1234, 100);
  FaultInjector b(1234, 100);
  bool kinds_seen[6] = {};
  for (uint64_t i = 0; i < 200; ++i) {
    const FaultPlan pa = a.PlanForSession(i);
    const FaultPlan pb = b.PlanForSession(i);
    EXPECT_EQ(pa.kind, pb.kind);
    EXPECT_EQ(pa.position, pb.position);
    EXPECT_EQ(pa.byte, pb.byte);
    EXPECT_EQ(pa.stall_ms, pb.stall_ms);
    EXPECT_TRUE(pa.active());  // rate 100: every session faulted
    EXPECT_GE(pa.position, 0.0);
    EXPECT_LT(pa.position, 1.0);
    kinds_seen[static_cast<size_t>(pa.kind)] = true;
  }
  // All five fault kinds occur within a modest schedule.
  for (size_t kind = 1; kind < 6; ++kind) {
    EXPECT_TRUE(kinds_seen[kind]) << "kind " << kind << " never drawn";
  }
  FaultInjector off(1234, 0);
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(off.PlanForSession(i).active());
  }
}

TEST(FaultInjectorTest, DocumentAndLimitFaultsApply) {
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kTruncateDoc;
  plan.position = 0.5;
  EXPECT_EQ(FaultInjector::ApplyToDocument(plan, "abcdefgh"), "abcd");
  plan.kind = FaultPlan::Kind::kCorruptByte;
  plan.position = 0.0;
  plan.byte = 'X';
  EXPECT_EQ(FaultInjector::ApplyToDocument(plan, "abcd"), "Xbcd");
  plan.kind = FaultPlan::Kind::kWorkerStall;
  EXPECT_EQ(FaultInjector::ApplyToDocument(plan, "abcd"), "abcd");

  EngineLimits limits;
  plan.kind = FaultPlan::Kind::kTinyBufferLimit;
  FaultInjector::ApplyToLimits(plan, &limits);
  EXPECT_EQ(limits.max_buffered_bytes, 64);
  plan.kind = FaultPlan::Kind::kTinyFormulaLimit;
  FaultInjector::ApplyToLimits(plan, &limits);
  EXPECT_EQ(limits.max_formula_bytes, 256);
}

// ---------------------------------------------------------------------------
// Chaos harness: mutated documents through the full serving stack (parser →
// engine → pool), statuses and partial results checked against the DOM
// oracle.  Every step is seeded — a failure reproduces with the same seed.

// One in-flight chaos session plus everything the oracle check needs.
struct ChaosSession {
  std::shared_ptr<StreamSession> session;
  std::vector<StreamEvent> events;  // what was actually fed
  std::string query_text;
  FaultPlan plan;
  std::string doc;
};

// Mutates the document per the plan, opens a session, feeds it in small
// batches and closes (or aborts, mirroring spexserve on parse failures).
// Does not wait: callers run a wave of sessions concurrently and then check
// them with CheckChaosSession.
ChaosSession StartChaosSession(EnginePool* pool, CompiledQueryCache* cache,
                               const FaultPlan& plan,
                               const std::string& query_text,
                               const std::string& base_doc,
                               const EngineLimits& base_limits) {
  ChaosSession out;
  out.query_text = query_text;
  out.plan = plan;
  out.doc = FaultInjector::ApplyToDocument(plan, base_doc);
  EngineLimits limits = base_limits;
  FaultInjector::ApplyToLimits(plan, &limits);

  const Status parse_status =
      ParseXmlToEvents(out.doc, &out.events, XmlParserOptions{});

  StatusOr<std::shared_ptr<StreamSession>> open =
      pool->OpenSession(query_text, cache);
  if (!open.ok()) {
    ADD_FAILURE() << "OpenSession: " << open.status().ToString();
    return out;
  }
  out.session = *open;
  if (limits.enabled()) out.session->OverrideLimits(limits);
  constexpr size_t kBatch = 16;
  for (size_t i = 0; i < out.events.size(); i += kBatch) {
    out.session->Feed(std::vector<StreamEvent>(
        out.events.begin() + static_cast<ptrdiff_t>(i),
        out.events.begin() + static_cast<ptrdiff_t>(
                                 std::min(i + kBatch, out.events.size()))));
  }
  if (parse_status.ok()) {
    out.session->Close();
  } else {
    out.session->Abort(parse_status);
  }
  return out;
}

// Waits for one chaos session and checks the failure-model contract:
//   * the status is one of kOk / kMalformedInput / kResourceExhausted,
//   * healthy and aborted sessions match the closed-world DOM oracle
//     exactly,
//   * breached sessions' certain results are a byte-for-byte prefix of that
//     oracle.
// Counts the observed status code into `code_counts` (size kStatusCodeCount).
void CheckChaosSession(const ChaosSession& cs, int64_t* code_counts) {
  ASSERT_NE(cs.session, nullptr);
  const std::vector<std::string>& results = cs.session->Wait();
  const Status& status = cs.session->status();
  ASSERT_TRUE(status.code() == StatusCode::kOk ||
              status.code() == StatusCode::kMalformedInput ||
              status.code() == StatusCode::kResourceExhausted)
      << status.ToString() << "\nfault " << cs.plan.KindName()
      << "\ndoc: " << cs.doc;
  code_counts[static_cast<size_t>(status.code())]++;

  ExprPtr query = MustParseRpeq(cs.query_text);
  const std::vector<std::string> oracle = OracleFor(*query, cs.events);
  if (status.code() == StatusCode::kResourceExhausted) {
    // The engine stopped consuming at an unknown internal point: only the
    // certain prefix is comparable, and it must be exact.
    EXPECT_TRUE(cs.session->truncated());
    const int64_t certain = cs.session->certain_result_count();
    ASSERT_LE(certain, static_cast<int64_t>(results.size()));
    ASSERT_LE(certain, static_cast<int64_t>(oracle.size()))
        << "fault " << cs.plan.KindName() << "\ndoc: " << cs.doc;
    for (int64_t i = 0; i < certain; ++i) {
      EXPECT_EQ(results[static_cast<size_t>(i)],
                oracle[static_cast<size_t>(i)])
          << "fault " << cs.plan.KindName() << " certain #" << i;
    }
  } else {
    // kOk / kMalformedInput: the engine consumed the entire fed prefix, so
    // the sealed result must equal the oracle in full.
    EXPECT_EQ(results, oracle)
        << "fault " << cs.plan.KindName() << "\ndoc: " << cs.doc;
    if (status.ok()) {
      EXPECT_FALSE(cs.session->truncated());
      EXPECT_EQ(cs.session->certain_result_count(),
                static_cast<int64_t>(results.size()));
    } else if (cs.events.empty()) {
      // The parse failed before emitting anything: no batch ever reached the
      // pool, so there was no stream to seal.
      EXPECT_FALSE(cs.session->truncated());
      EXPECT_TRUE(results.empty());
    } else {
      EXPECT_TRUE(cs.session->truncated());
    }
  }
}

std::vector<std::string> ChaosBaseDocs() {
  std::vector<std::string> docs;
  docs.push_back(kBaseDoc);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    docs.push_back(EventsToXml(RandomDoc(seed)));
  }
  return docs;
}

const char* ChaosQueryFor(size_t index) {
  static const char* kQueries[] = {"_*.b", "a._", "_*.a[b]", "a.b.c",
                                   "catalog.book[title]"};
  return kQueries[index % (sizeof(kQueries) / sizeof(kQueries[0]))];
}

// Chaos matrix: mutated documents × limit configurations × pool concurrency.
// A QueryRegistry rides along on every pool: each failed (quarantined)
// session must leave exactly one slow-query record and one flight dump whose
// query id resolves in /queries — the post-mortem contract of DESIGN.md §13.
TEST(ChaosMatrixTest, MutatedDocsAcrossLimitsAndConcurrency) {
  const std::vector<std::string> docs = ChaosBaseDocs();
  EngineLimits none;
  EngineLimits tiny_buffer;
  tiny_buffer.max_buffered_bytes = 256;
  EngineLimits low_events;
  low_events.max_events = 64;
  const EngineLimits configs[] = {none, tiny_buffer, low_events};

  // One registry across every cell; large flight retention so no dump of
  // this run is evicted before the final accounting.
  QueryRegistry::Options registry_options;
  registry_options.flight_capacity = 256;
  QueryRegistry registry(registry_options);
  std::mutex log_mu;
  int64_t slow_lines = 0, flight_lines = 0;
  obs::Logger::Global().SetSink([&](std::string_view line) {
    std::lock_guard<std::mutex> lock(log_mu);
    if (line.find("slow query") != std::string_view::npos) ++slow_lines;
    if (line.find("flight dump") != std::string_view::npos) ++flight_lines;
  });

  int64_t code_counts[kStatusCodeCount] = {};
  uint64_t cell = 0;
  for (const EngineLimits& config : configs) {
    for (int threads : {1, 2}) {
      PoolOptions options;
      options.threads = threads;
      EnginePool pool(options);
      pool.SetQueryRegistry(&registry);
      CompiledQueryCache cache(8);
      FaultInjector injector(0x9E3779B9u + cell, /*fault_rate_percent=*/100);
      std::vector<ChaosSession> wave;
      for (uint64_t i = 0; i < 24; ++i) {
        wave.push_back(StartChaosSession(&pool, &cache,
                                         injector.PlanForSession(i),
                                         ChaosQueryFor(i),
                                         docs[i % docs.size()], config));
      }
      for (const ChaosSession& cs : wave) {
        CheckChaosSession(cs, code_counts);
      }
      ++cell;
    }
  }
  obs::Logger::Global().SetSink(stderr);

  // 144 faulted sessions; the matrix must exercise every status class.
  EXPECT_GT(code_counts[static_cast<size_t>(StatusCode::kOk)], 0);
  EXPECT_GT(code_counts[static_cast<size_t>(StatusCode::kMalformedInput)], 0);
  EXPECT_GT(code_counts[static_cast<size_t>(StatusCode::kResourceExhausted)],
            0);
  EXPECT_EQ(code_counts[static_cast<size_t>(StatusCode::kInternal)], 0);
  EXPECT_EQ(code_counts[static_cast<size_t>(StatusCode::kCancelled)], 0);

  // Every quarantined session — and only those — produced exactly one
  // flight dump and one slow-query record (thresholds are off, so the only
  // slow trigger is failure).
  int64_t failed = 0;
  for (size_t c = 0; c < kStatusCodeCount; ++c) {
    if (c != static_cast<size_t>(StatusCode::kOk)) failed += code_counts[c];
  }
  ASSERT_GT(failed, 0);
  EXPECT_EQ(registry.flight_dumps(), failed);
  EXPECT_EQ(registry.slow_queries(), failed);
  {
    std::lock_guard<std::mutex> lock(log_mu);
    EXPECT_EQ(flight_lines, failed);
    EXPECT_EQ(slow_lines, failed);
  }

  // Every retained dump's query id resolves to a live /queries row.
  const std::string flights = registry.FlightJson();
  const std::string queries = registry.ToJson();
  size_t pos = 0;
  int resolved = 0;
  const std::string key = "\"query_id\": ";
  while ((pos = flights.find(key, pos)) != std::string::npos) {
    pos += key.size();
    const size_t end = flights.find_first_not_of("0123456789", pos);
    const std::string id = flights.substr(pos, end - pos);
    EXPECT_NE(queries.find("{\"id\": " + id + ","), std::string::npos)
        << "flight dump query id " << id << " not in /queries";
    ++resolved;
  }
  EXPECT_EQ(resolved, std::min<int64_t>(failed, 256));
}

// Chaos soak: 512 injected-fault sessions through one pool, with worker
// stalls layered on top via the before_batch hook.  Zero crashes, zero
// deadlocks (Wait always returns), statuses confined to the failure model,
// certain results byte-for-byte against the DOM oracle — all checked inside
// RunChaosSession.
TEST(ChaosSoakTest, FiveHundredInjectedFaultSessions) {
  constexpr uint64_t kSessions = 512;
  const std::vector<std::string> docs = ChaosBaseDocs();

  PoolOptions options;
  options.threads = 4;
  options.queue_capacity = 2;  // small queue: exercise backpressure
  FaultInjector stall_injector(0xC0FFEE, /*fault_rate_percent=*/20);
  std::atomic<uint64_t> batch_counter{0};
  options.before_batch = [&](int) {
    FaultInjector::MaybeStall(
        stall_injector.PlanForSession(batch_counter.fetch_add(1)));
  };
  EnginePool pool(options);
  CompiledQueryCache cache(8);

  FaultInjector injector(42, /*fault_rate_percent=*/100);
  int64_t code_counts[kStatusCodeCount] = {};
  constexpr uint64_t kWave = 16;  // sessions genuinely in flight together
  for (uint64_t base = 0; base < kSessions; base += kWave) {
    std::vector<ChaosSession> wave;
    for (uint64_t i = base; i < base + kWave && i < kSessions; ++i) {
      wave.push_back(StartChaosSession(&pool, &cache,
                                       injector.PlanForSession(i),
                                       ChaosQueryFor(i),
                                       docs[i % docs.size()],
                                       EngineLimits{}));
    }
    for (const ChaosSession& cs : wave) {
      CheckChaosSession(cs, code_counts);
    }
  }
  int64_t total = 0;
  for (int64_t count : code_counts) total += count;
  EXPECT_EQ(total, static_cast<int64_t>(kSessions));
  EXPECT_GT(code_counts[static_cast<size_t>(StatusCode::kOk)], 0);
  EXPECT_GT(code_counts[static_cast<size_t>(StatusCode::kMalformedInput)], 0);
  EXPECT_GT(code_counts[static_cast<size_t>(StatusCode::kResourceExhausted)],
            0);
  EXPECT_EQ(code_counts[static_cast<size_t>(StatusCode::kInternal)], 0);
}

// Subscription-mode chaos (DESIGN.md §14): sessions evaluating a standing
// population on the shared MultiQueryTemplate must quarantine per-session
// exactly like single-query sessions — a breach poisons one session's run
// state only, never the shared template.  Clean sessions opened on the same
// template produce byte-identical per-slot results before and after every
// breach.
TEST(ChaosSubscriptionTest, BreachesQuarantinePerSessionNotTheTemplate) {
  const std::vector<std::string> population = {"_*.b", "a._", "_*.a[b]",
                                               "a.b.c"};
  CompiledQueryCache cache(8);
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> mq_template =
      cache.GetMulti(population);
  ASSERT_TRUE(mq_template.ok());
  const int slots = (*mq_template)->slot_count();
  const int shared_degree_before = (*mq_template)->shared_degree();

  PoolOptions options;
  options.threads = 2;
  EnginePool pool(options);

  // A clean subscription run of `events`: all per-slot result vectors.
  auto run_clean = [&](const std::vector<StreamEvent>& events) {
    std::shared_ptr<StreamSession> session =
        pool.OpenSubscriptions(*mq_template);
    session->Feed(std::vector<StreamEvent>(events));
    session->Close();
    session->Wait();
    EXPECT_TRUE(session->status().ok()) << session->status().message();
    std::vector<std::vector<std::string>> per_slot;
    for (int s = 0; s < slots; ++s) {
      per_slot.push_back(session->slot_results(s));
    }
    return per_slot;
  };

  const std::vector<std::string> base_docs = ChaosBaseDocs();
  std::vector<std::vector<StreamEvent>> clean_events;
  std::vector<std::vector<std::vector<std::string>>> before;
  for (const std::string& doc : base_docs) {
    clean_events.push_back(MustEvents(doc));
    before.push_back(run_clean(clean_events.back()));
  }

  // Chaos waves over the same template: mutated documents and sabotaged
  // limits, 100% fault rate.
  FaultInjector injector(0xD1CE, /*fault_rate_percent=*/100);
  int breached = 0;
  for (uint64_t i = 0; i < 24; ++i) {
    const FaultPlan plan = injector.PlanForSession(i);
    const std::string doc =
        FaultInjector::ApplyToDocument(plan, base_docs[i % base_docs.size()]);
    EngineLimits limits;
    FaultInjector::ApplyToLimits(plan, &limits);
    std::vector<StreamEvent> events;
    const Status parse_status =
        ParseXmlToEvents(doc, &events, XmlParserOptions{});

    std::shared_ptr<StreamSession> session =
        pool.OpenSubscriptions(*mq_template);
    if (limits.enabled()) session->OverrideLimits(limits);
    constexpr size_t kBatch = 16;
    for (size_t begin = 0; begin < events.size(); begin += kBatch) {
      session->Feed(std::vector<StreamEvent>(
          events.begin() + static_cast<ptrdiff_t>(begin),
          events.begin() + static_cast<ptrdiff_t>(
                               std::min(begin + kBatch, events.size()))));
    }
    if (parse_status.ok()) {
      session->Close();
    } else {
      session->Abort(parse_status);
    }
    session->Wait();
    const Status& status = session->status();
    ASSERT_TRUE(status.code() == StatusCode::kOk ||
                status.code() == StatusCode::kMalformedInput ||
                status.code() == StatusCode::kResourceExhausted)
        << status.ToString() << "\nfault " << plan.KindName();
    if (status.code() == StatusCode::kResourceExhausted) ++breached;
    for (int s = 0; s < slots; ++s) {
      SCOPED_TRACE("chaos #" + std::to_string(i) + " fault " +
                   plan.KindName() + " slot=" + std::to_string(s) +
                   " query=" + (*mq_template)->slot_text(s));
      const std::vector<std::string> oracle =
          OracleFor((*mq_template)->slot_expr(s), events);
      const std::vector<std::string>& results =
          session->slot_results(s);
      if (status.code() == StatusCode::kResourceExhausted) {
        // Only the certain prefix is comparable — and it must be exact.
        const int64_t certain = session->slot_certain_count(s);
        ASSERT_LE(certain, static_cast<int64_t>(results.size()));
        ASSERT_LE(certain, static_cast<int64_t>(oracle.size()));
        for (int64_t r = 0; r < certain; ++r) {
          EXPECT_EQ(results[static_cast<size_t>(r)],
                    oracle[static_cast<size_t>(r)]);
        }
      } else if (!events.empty() || status.ok()) {
        EXPECT_EQ(results, oracle);
      }
    }
  }
  EXPECT_GT(breached, 0);  // the schedule really injected limit faults

  // The shared template survived every breach: clean sessions on it are
  // byte-identical to the pre-chaos runs, and its structure is untouched.
  for (size_t d = 0; d < base_docs.size(); ++d) {
    EXPECT_EQ(run_clean(clean_events[d]), before[d]) << "doc #" << d;
  }
  EXPECT_EQ((*mq_template)->shared_degree(), shared_degree_before);
  StatusOr<std::shared_ptr<const MultiQueryTemplate>> again =
      cache.GetMulti(population);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), mq_template->get());  // still the resident entry
}

}  // namespace
}  // namespace spex
