// End-to-end battery for the hardened TCP serving tier (DESIGN.md §15):
// NetServer + SpexClient over real sockets, overload shedding, deadlines,
// fault isolation, graceful drain with no lost certain results, the
// SessionDirectory churn regression, and a ≥256-session wire-level chaos
// soak through ChaosProxy with every terminal checked against the DOM
// oracle's certainty contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include "base/status.h"
#include "baseline/dom_evaluator.h"
#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/wire_protocol.h"
#include "rpeq/parser.h"
#include "runtime/admin_server.h"
#include "runtime/engine_pool.h"
#include "runtime/fault_injector.h"
#include "runtime/query_cache.h"
#include "xml/dom.h"
#include "xml/stream_event.h"
#include "xml/xml_parser.h"

namespace spex {
namespace net {
namespace {

void SleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --- DOM-oracle helpers (the robustness_test contract, applied over the
// wire): a prefix is sealed under closed-world semantics and evaluated on
// the materialized tree.

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

// Events the server's per-document parser produced for a byte prefix —
// reproduced locally with the same parser configuration.
std::vector<StreamEvent> EventsForPrefix(const std::string& prefix,
                                         XmlParserOptions options = {}) {
  RecordingEventSink sink;
  XmlParser parser(&sink, options);
  parser.Feed(prefix);
  return sink.events();
}

std::vector<std::string> SortedFragments(
    const std::vector<ClientResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const ClientResult& r : results) out.push_back(r.fragment);
  std::sort(out.begin(), out.end());
  return out;
}

// A small serving stack on an ephemeral port.
struct Stack {
  PoolOptions pool_options;
  std::unique_ptr<EnginePool> pool;
  std::unique_ptr<CompiledQueryCache> cache;
  std::unique_ptr<NetServer> server;

  explicit Stack(NetServerOptions options = {}, int threads = 2,
                 std::function<void(int)> before_batch = nullptr,
                 SessionDirectory* directory = nullptr,
                 XmlParserOptions parser = {}) {
    pool_options.threads = threads;
    pool_options.before_batch = std::move(before_batch);
    pool_options.parser = parser;
    pool = std::make_unique<EnginePool>(pool_options);
    cache = std::make_unique<CompiledQueryCache>(64);
    server = std::make_unique<NetServer>(pool.get(), cache.get(), options,
                                         directory);
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
  }
};

const char kDoc[] =
    "<doc><a><b>one</b></a><a><b>two</b><c>x</c></a><a><b>three</b></a>"
    "</doc>";

// ---------------------------------------------------------------------------
// Happy paths.

TEST(NetServer, SingleQueryEndToEnd) {
  Stack stack;
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  EXPECT_EQ(client.version(), kMaxVersion);
  EXPECT_TRUE(client.Ping().ok());

  uint32_t handle = 0;
  uint32_t slots = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, &slots).ok());
  EXPECT_EQ(slots, 1u);

  DocOutcome outcome = client.StreamDocument(handle, 1, kDoc);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  const std::vector<std::string> oracle =
      DomEvaluateToStrings(*MustParseRpeq("_*.b"), std::string(kDoc));
  ASSERT_EQ(outcome.results.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(outcome.results[i].fragment, oracle[i]);
    EXPECT_TRUE(outcome.results[i].certain);
  }
  EXPECT_EQ(outcome.certain, oracle.size());
  EXPECT_EQ(outcome.total, oracle.size());

  // The same connection serves further documents (tiny chunks this time, so
  // the server-side reassembly path is exercised too).
  SpexClient tiny(ClientOptions{.chunk_bytes = 3});
  ASSERT_TRUE(tiny.Connect("127.0.0.1", stack.server->port()).ok());
  uint32_t handle2 = 0;
  ASSERT_TRUE(
      tiny.Prepare("_*.b", PrepareFrame::kQuery, &handle2, nullptr).ok());
  DocOutcome tiny_outcome = tiny.StreamDocument(handle2, 1, kDoc);
  ASSERT_TRUE(tiny_outcome.status.ok()) << tiny_outcome.status.ToString();
  EXPECT_EQ(SortedFragments(tiny_outcome.results), SortedFragments(outcome.results));
}

TEST(NetServer, PopulationPrepareStreamsEverySlot) {
  Stack stack;
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  uint32_t slots = 0;
  ASSERT_TRUE(client
                  .Prepare("doc.a.b\ndoc.a.c\n_*.b", PrepareFrame::kPopulation,
                           &handle, &slots)
                  .ok());
  EXPECT_EQ(slots, 3u);

  DocOutcome outcome = client.StreamDocument(handle, 1, kDoc);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();

  // Slot order is the population's sorted canonical order — recover the
  // slot → query mapping from the shared compiled-query cache.
  auto multi = stack.cache->GetMulti({"doc.a.b", "doc.a.c", "_*.b"});
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  uint64_t expected_total = 0;
  for (uint32_t slot = 0; slot < 3; ++slot) {
    std::vector<std::string> got;
    for (const ClientResult& r : outcome.results) {
      if (r.slot == slot) {
        EXPECT_TRUE(r.certain);
        got.push_back(r.fragment);
      }
    }
    const std::string& slot_query =
        (*multi)->slot_text(static_cast<int>(slot));
    const std::vector<std::string> oracle = DomEvaluateToStrings(
        *MustParseRpeq(slot_query), std::string(kDoc));
    EXPECT_EQ(got, oracle) << slot_query;
    expected_total += oracle.size();
  }
  EXPECT_EQ(outcome.total, expected_total);
  EXPECT_EQ(outcome.certain, expected_total);
}

TEST(NetServer, PopulationDocumentFailingMidStreamSealsEverySlot) {
  // A population document whose XML breaks after some results were decided:
  // one terminal ERROR whose counts match the RESULT frames, every slot's
  // certain fragments first and all of them in the slot's DOM oracle over
  // what the parser accepted.
  Stack stack;
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  const std::vector<std::string> population = {"doc.a.b", "doc.a.c", "_*.b",
                                               "_*.a[c].b"};
  std::string text;
  for (const std::string& q : population) text += q + "\n";
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare(text, PrepareFrame::kPopulation, &handle, nullptr).ok());
  const std::string bad_doc =
      "<doc><a><b>one</b></a><a><b>two</b><c>x</c></a><a><b>three</wrong>";
  DocOutcome outcome = client.StreamDocument(handle, 1, bad_doc);
  ASSERT_TRUE(outcome.terminal_frame);
  EXPECT_EQ(outcome.status.code(), StatusCode::kMalformedInput)
      << outcome.status.ToString();

  uint64_t certain_flags = 0;
  for (const ClientResult& r : outcome.results) certain_flags += r.certain;
  EXPECT_EQ(outcome.total, outcome.results.size());
  EXPECT_EQ(outcome.certain, certain_flags);
  EXPECT_GT(outcome.certain, 0u);

  auto multi = stack.cache->GetMulti(population);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  const std::vector<StreamEvent> fed = EventsForPrefix(bad_doc);
  int slots_with_certain = 0;
  for (int slot = 0; slot < (*multi)->slot_count(); ++slot) {
    SCOPED_TRACE((*multi)->slot_text(slot));
    const std::vector<std::string> oracle =
        OracleFor((*multi)->slot_expr(slot), fed);
    bool speculative_seen = false;
    uint64_t certain = 0;
    for (const ClientResult& r : outcome.results) {
      if (r.slot != static_cast<uint32_t>(slot)) continue;
      if (!r.certain) {
        speculative_seen = true;
        continue;
      }
      EXPECT_FALSE(speculative_seen) << "certain results form a prefix";
      EXPECT_NE(std::find(oracle.begin(), oracle.end(), r.fragment),
                oracle.end())
          << r.fragment;
      ++certain;
    }
    if (certain > 0) ++slots_with_certain;
  }
  EXPECT_GE(slots_with_certain, 2);

  // The connection keeps serving the same population.
  DocOutcome good = client.StreamDocument(handle, 2, kDoc);
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
}

TEST(NetServer, ManyDocumentsInterleavedOnOneConnection) {
  NetServerOptions options;
  options.max_docs_per_connection = 8;
  Stack stack(options);
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());

  // Open four documents, stream them interleaved, end them in reverse.
  const std::string doc(kDoc);
  for (uint32_t doc_id = 1; doc_id <= 4; ++doc_id) {
    ASSERT_TRUE(client.SendChunk(handle, doc_id, doc.substr(0, 10)).ok());
  }
  for (uint32_t doc_id = 1; doc_id <= 4; ++doc_id) {
    ASSERT_TRUE(client.SendChunk(handle, doc_id, doc.substr(10)).ok());
  }
  std::vector<std::string> oracle =
      DomEvaluateToStrings(*MustParseRpeq("_*.b"), doc);
  std::sort(oracle.begin(), oracle.end());
  for (uint32_t doc_id = 4; doc_id >= 1; --doc_id) {
    ASSERT_TRUE(client.SendEndDoc(handle, doc_id).ok());
    DocOutcome outcome = client.Collect(doc_id);
    ASSERT_TRUE(outcome.status.ok())
        << doc_id << ": " << outcome.status.ToString();
    EXPECT_EQ(SortedFragments(outcome.results), oracle);
  }
}

// ---------------------------------------------------------------------------
// Structured failure and fault isolation.

TEST(NetServer, CompileErrorLeavesConnectionServing) {
  Stack stack;
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  Status bad = client.Prepare("_*.[", PrepareFrame::kQuery, &handle, nullptr);
  EXPECT_FALSE(bad.ok());
  // Same connection, next PREPARE succeeds.
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  EXPECT_TRUE(client.StreamDocument(handle, 1, kDoc).status.ok());
}

TEST(NetServer, ParseFailurePoisonsOnlyThatDocument) {
  Stack stack;
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());

  DocOutcome bad =
      client.StreamDocument(handle, 1, "<doc><a><b>one</b></wrong></doc>");
  EXPECT_EQ(bad.status.code(), StatusCode::kMalformedInput)
      << bad.status.ToString();
  // The sealed partial's certain results arrived before the ERROR and match
  // the oracle of what the parser accepted.
  EXPECT_LE(bad.certain, bad.total);
  const std::vector<StreamEvent> fed =
      EventsForPrefix("<doc><a><b>one</b>");
  const std::vector<std::string> oracle = OracleFor(*MustParseRpeq("_*.b"), fed);
  ASSERT_LE(bad.certain, oracle.size());
  for (uint64_t i = 0; i < bad.certain; ++i) {
    EXPECT_EQ(bad.results[i].fragment, oracle[i]) << i;
  }

  // The connection (and a second document on it) keeps serving.
  DocOutcome good = client.StreamDocument(handle, 2, kDoc);
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(good.total,
            DomEvaluateToStrings(*MustParseRpeq("_*.b"), std::string(kDoc))
                .size());
}

// A document that failed mid-stream keeps a terminal entry until its
// END_DOC: the rest of its frames are swallowed, not served as a new
// document with the same id (which would send RESULT frames and a second
// terminal for a document the client was told had failed).
TEST(NetServer, FailedDocumentSwallowsItsRemainingFrames) {
  Stack stack;
  SpexClient client(ClientOptions{.io_timeout_ms = 500});
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  ASSERT_TRUE(client.SendChunk(handle, 1, "<doc><a></wrong>").ok());
  DocOutcome failed = client.Collect(1);  // terminal before END_DOC
  ASSERT_TRUE(failed.terminal_frame);
  EXPECT_EQ(failed.status.code(), StatusCode::kMalformedInput)
      << failed.status.ToString();
  EXPECT_EQ(failed.total, 0u);

  ASSERT_TRUE(client.SendChunk(handle, 1, "<b>x</b></a></doc>").ok());
  ASSERT_TRUE(client.SendEndDoc(handle, 1).ok());
  // A later document on the connection orders after anything doc 1 could
  // still produce.
  DocOutcome good = client.StreamDocument(handle, 2, kDoc);
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  DocOutcome again = client.Collect(1);
  EXPECT_EQ(again.status.code(), StatusCode::kDeadlineExceeded)
      << again.status.ToString();
  EXPECT_TRUE(again.results.empty());
  EXPECT_FALSE(again.terminal_frame);

  const obs::MetricsSnapshot snap = stack.pool->metrics().Collect();
  EXPECT_EQ(snap.Value("spex_pool_sessions_opened"), 2);
}

// Progressive emission over the wire: a RESULT frame arrives while the
// document is still streaming (END_DOC not sent yet).
TEST(NetServer, ResultArrivesBeforeEndDoc) {
  Stack stack;
  SpexClient client(ClientOptions{.io_timeout_ms = 5000});
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  const std::string doc(kDoc);
  const size_t half = doc.size() / 2;
  ASSERT_TRUE(client.SendChunk(handle, 1, doc.substr(0, half)).ok());
  OwnedFrame frame;
  Status got = client.ReadFrame(&frame);
  ASSERT_TRUE(got.ok()) << got.ToString();
  ASSERT_EQ(frame.type, FrameType::kResult);
  ResultFrame first;
  ASSERT_TRUE(first.Parse(frame.payload).ok());
  EXPECT_EQ(first.doc_id, 1u);
  EXPECT_EQ(first.certain, 1);

  ASSERT_TRUE(client.SendChunk(handle, 1, doc.substr(half)).ok());
  ASSERT_TRUE(client.SendEndDoc(handle, 1).ok());
  DocOutcome rest = client.Collect(1);
  ASSERT_TRUE(rest.status.ok()) << rest.status.ToString();
  std::vector<std::string> all = {std::string(first.fragment)};
  for (const ClientResult& r : rest.results) all.push_back(r.fragment);
  EXPECT_EQ(all, DomEvaluateToStrings(*MustParseRpeq("_*.b"), doc));
  EXPECT_EQ(rest.total, all.size());
  EXPECT_EQ(rest.certain, all.size());
}

// The client reads while it writes: a result stream far larger than the
// server's write cap (and than small socket buffers) cannot deadlock it.
TEST(NetServer, LargeResultStreamDoesNotDeadlockClient) {
  NetServerOptions options;
  options.max_write_buffer_bytes = 64 * 1024;
  Stack stack(options);
  std::string doc = "<doc>";
  for (int i = 0; i < 6000; ++i) {
    doc += "<a><b>" + std::string(100, 'x') + std::to_string(i) +
           "</b><c>y</c></a>";
  }
  doc += "</doc>";
  const std::vector<std::string> oracle =
      DomEvaluateToStrings(*MustParseRpeq("_*._"), doc);
  size_t result_bytes = 0;
  for (const std::string& r : oracle) result_bytes += r.size();
  ASSERT_GT(result_bytes, 16 * options.max_write_buffer_bytes);

  SpexClient client(ClientOptions{.chunk_bytes = 16 * 1024});
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  const int small = 16 * 1024;
  setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*._", PrepareFrame::kQuery, &handle, nullptr).ok());
  DocOutcome outcome = client.StreamDocument(handle, 1, doc);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  std::vector<std::string> got;
  for (const ClientResult& r : outcome.results) got.push_back(r.fragment);
  EXPECT_TRUE(got == oracle);
  EXPECT_EQ(outcome.total, oracle.size());
}

// Parser limits apply on the worker: a document breaching max_depth over
// the wire ends in exactly one ERROR kResourceExhausted whose certain
// fragments are results of the accepted prefix.
TEST(NetServer, ParserDepthLimitOnWorkerEndsInOneError) {
  XmlParserOptions parser;
  parser.max_depth = 4;
  Stack stack(NetServerOptions{}, 2, nullptr, nullptr, parser);
  SpexClient client(ClientOptions{.chunk_bytes = 8});
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  const std::string deep =
      "<doc><a><b>one</b></a><a><b><c><d><e>deep</e></d></c></b></a>"
      "<a><b>after</b></a></doc>";
  DocOutcome outcome = client.StreamDocument(handle, 1, deep);
  ASSERT_TRUE(outcome.terminal_frame);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
      << outcome.status.ToString();
  EXPECT_EQ(outcome.total, outcome.results.size());
  EXPECT_GE(outcome.certain, 1u);
  const std::vector<std::string> oracle =
      OracleFor(*MustParseRpeq("_*.b"), EventsForPrefix(deep, parser));
  uint64_t certain = 0;
  for (const ClientResult& r : outcome.results) {
    if (!r.certain) continue;
    ++certain;
    EXPECT_NE(std::find(oracle.begin(), oracle.end(), r.fragment),
              oracle.end())
        << r.fragment;
  }
  EXPECT_EQ(certain, outcome.certain);
  // No second terminal or stray RESULT for the document: the next frame
  // after the swallowed remainder is the PONG.
  EXPECT_TRUE(client.Ping().ok());
  const obs::MetricsSnapshot snap = stack.pool->metrics().Collect();
  int64_t terminals = 0;
  for (const obs::MetricSample& sample : snap.samples) {
    if (sample.name == "spex_net_docs_total") terminals += sample.value;
  }
  EXPECT_EQ(terminals, 1);
}

// spex_net_ttfr_us: observed once per document with results, never above
// the document's latency; a document without results records nothing.
TEST(NetServer, TtfrMetricCoversDocumentsWithResults) {
  Stack stack;
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  ASSERT_TRUE(client.StreamDocument(handle, 1, kDoc).status.ok());
  obs::MetricsSnapshot snap = stack.pool->metrics().Collect();
  const obs::MetricSample* ttfr = snap.Find("spex_net_ttfr_us");
  const obs::MetricSample* latency = snap.Find("spex_net_doc_latency_us");
  ASSERT_NE(ttfr, nullptr);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(ttfr->count, 1);
  EXPECT_EQ(latency->count, 1);
  EXPECT_LE(ttfr->sum, latency->sum);

  uint32_t none = 0;
  ASSERT_TRUE(
      client.Prepare("_*.zzz", PrepareFrame::kQuery, &none, nullptr).ok());
  DocOutcome empty = client.StreamDocument(none, 2, kDoc);
  ASSERT_TRUE(empty.status.ok()) << empty.status.ToString();
  EXPECT_EQ(empty.total, 0u);
  snap = stack.pool->metrics().Collect();
  EXPECT_EQ(snap.Find("spex_net_ttfr_us")->count, 1);
  EXPECT_EQ(snap.Find("spex_net_doc_latency_us")->count, 2);
}

TEST(NetServer, UnknownHandleIsDocScopedInvalidArgument) {
  Stack stack;
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  ASSERT_TRUE(client.SendChunk(99, 7, "<doc/>").ok());
  DocOutcome outcome = client.Collect(7);
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  // Connection survives the refusal.
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  EXPECT_TRUE(client.StreamDocument(handle, 8, kDoc).status.ok());
}

TEST(NetServer, OversizedFramePoisonsOnlyThatConnection) {
  Stack stack;
  SpexClient victim;
  SpexClient bystander;
  { Status c = victim.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  ASSERT_TRUE(bystander.Connect("127.0.0.1", stack.server->port()).ok());

  // A 4 GiB length prefix: the server must refuse it from the header alone
  // and close this connection with a structured connection-level ERROR.
  std::string poison;
  for (int i = 0; i < 4; ++i) poison.push_back(static_cast<char>(0xff));
  poison.push_back(static_cast<char>(FrameType::kStream));
  ASSERT_TRUE(victim.SendRaw(poison).ok());

  OwnedFrame frame;
  Status got = victim.ReadFrame(&frame);
  if (got.ok()) {
    EXPECT_EQ(frame.type, FrameType::kError);
    ErrorFrame err;
    ASSERT_TRUE(err.Parse(frame.payload).ok());
    EXPECT_EQ(err.doc_id, 0u);
    EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
    // Then EOF.
    EXPECT_FALSE(victim.ReadFrame(&frame).ok());
  } else {
    // The refusal may race the close; the connection must still be gone.
    EXPECT_EQ(got.code(), StatusCode::kCancelled) << got.ToString();
  }

  // The bystander connection is untouched.
  uint32_t handle = 0;
  ASSERT_TRUE(
      bystander.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  EXPECT_TRUE(bystander.StreamDocument(handle, 1, kDoc).status.ok());
}

TEST(NetServer, ClientEofMidDocumentAbsorbed) {
  Stack stack;
  {
    SpexClient killer;
    ASSERT_TRUE(killer.Connect("127.0.0.1", stack.server->port()).ok());
    uint32_t handle = 0;
    ASSERT_TRUE(
        killer.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
    ASSERT_TRUE(killer.SendChunk(handle, 1, "<doc><a><b>one</b>").ok());
    killer.Close();  // vanish without END_DOC
  }
  // The server sealed the orphan and keeps serving.
  SpexClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", stack.server->port()).ok());
  uint32_t handle = 0;
  ASSERT_TRUE(
      next.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  EXPECT_TRUE(next.StreamDocument(handle, 1, kDoc).status.ok());
}

// ---------------------------------------------------------------------------
// Overload protection.

TEST(NetServer, ConnectionShedBeyondCap) {
  NetServerOptions options;
  options.max_connections = 1;
  Stack stack(options);
  SpexClient admitted;
  ASSERT_TRUE(admitted.Connect("127.0.0.1", stack.server->port()).ok());
  SpexClient refused;
  Status status = refused.Connect("127.0.0.1", stack.server->port());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  // The admitted connection is unaffected by the shed.
  uint32_t handle = 0;
  ASSERT_TRUE(
      admitted.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  EXPECT_TRUE(admitted.StreamDocument(handle, 1, kDoc).status.ok());
}

TEST(NetServer, PerConnectionDocCapShedsWithResourceExhausted) {
  NetServerOptions options;
  options.max_docs_per_connection = 1;
  Stack stack(options);
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());

  ASSERT_TRUE(client.SendChunk(handle, 1, "<doc><a>").ok());  // holds the slot
  ASSERT_TRUE(client.SendChunk(handle, 2, "<doc/>").ok());
  DocOutcome shed = client.Collect(2);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted)
      << shed.status.ToString();

  // Finishing the admitted document still works.
  ASSERT_TRUE(client.SendChunk(handle, 1, "<b>x</b></a></doc>").ok());
  ASSERT_TRUE(client.SendEndDoc(handle, 1).ok());
  DocOutcome outcome = client.Collect(1);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.total, 1u);
}

TEST(NetServer, GlobalDocCapShedsWithRetryAfter) {
  NetServerOptions options;
  options.max_docs_in_flight = 1;
  options.retry_after_ms = 777;
  Stack stack(options);

  SpexClient holder;
  { Status c = holder.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t holder_handle = 0;
  ASSERT_TRUE(
      holder.Prepare("_*.b", PrepareFrame::kQuery, &holder_handle, nullptr)
          .ok());
  ASSERT_TRUE(holder.SendChunk(holder_handle, 1, "<doc><a>").ok());
  SleepMs(100);  // let the holder's doc get admitted first

  SpexClient shed_client;
  { Status c = shed_client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      shed_client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr)
          .ok());
  ASSERT_TRUE(shed_client.SendChunk(handle, 1, "<doc/>").ok());
  DocOutcome shed = shed_client.Collect(1);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable)
      << shed.status.ToString();
  EXPECT_EQ(shed.retry_after_ms, 777u);

  // Shedding never cancels admitted work.
  ASSERT_TRUE(holder.SendChunk(holder_handle, 1, "<b>x</b></a></doc>").ok());
  ASSERT_TRUE(holder.SendEndDoc(holder_handle, 1).ok());
  EXPECT_TRUE(holder.Collect(1).status.ok());
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST(NetServer, IdleConnectionTimedOutWithStructuredError) {
  NetServerOptions options;
  options.idle_timeout_ms = 150;
  Stack stack(options);
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  // Say nothing; the slow-loris defense must reap us.
  OwnedFrame frame;
  Status got = client.ReadFrame(&frame);
  if (got.ok()) {
    EXPECT_EQ(frame.type, FrameType::kError);
    ErrorFrame err;
    ASSERT_TRUE(err.Parse(frame.payload).ok());
    EXPECT_EQ(err.code, StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(client.ReadFrame(&frame).ok());
  } else {
    EXPECT_EQ(got.code(), StatusCode::kCancelled) << got.ToString();
  }
}

TEST(NetServer, DocDeadlineAbortsOnlyThatDocument) {
  NetServerOptions options;
  options.doc_deadline_ms = 150;
  Stack stack(options);
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  ASSERT_TRUE(client.SendChunk(handle, 1, "<doc><a><b>one</b>").ok());
  DocOutcome outcome = client.Collect(1);  // never send END_DOC
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
      << outcome.status.ToString();
  // The sealed partial's certain results match the oracle on what was fed.
  const std::vector<std::string> oracle = OracleFor(
      *MustParseRpeq("_*.b"), EventsForPrefix("<doc><a><b>one</b>"));
  ASSERT_LE(outcome.certain, oracle.size());
  for (uint64_t i = 0; i < outcome.certain; ++i) {
    EXPECT_EQ(outcome.results[i].fragment, oracle[i]);
  }
  // The connection keeps serving fresh documents.
  DocOutcome good = client.StreamDocument(handle, 2, kDoc);
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
}

// ---------------------------------------------------------------------------
// Graceful drain: in-flight END_DOC'd documents finish with every certain
// result; mid-stream documents are sealed kCancelled with their certain
// partials intact; the loop exits and drained() flips.

TEST(NetServer, DrainFlushesInFlightAndSealsMidStream) {
  NetServerOptions options;
  Stack stack(options, /*threads=*/2,
              /*before_batch=*/[](int) { SleepMs(40); });

  // Build a document big enough to hold several certain results.
  std::string big = "<doc>";
  for (int i = 0; i < 64; ++i) big += "<a><b>v</b></a>";
  big += "</doc>";

  // Client 1: full document, END_DOC sent — must complete despite drain.
  SpexClient finisher;
  { Status c = finisher.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t finisher_handle = 0;
  ASSERT_TRUE(finisher
                  .Prepare("_*.b", PrepareFrame::kQuery, &finisher_handle,
                           nullptr)
                  .ok());
  ASSERT_TRUE(finisher.SendChunk(finisher_handle, 1, big).ok());
  ASSERT_TRUE(finisher.SendEndDoc(finisher_handle, 1).ok());

  // Client 2: mid-stream, no END_DOC — must be sealed kCancelled.
  const std::string prefix = "<doc><a><b>one</b></a><a><b>two</b></a><a>";
  SpexClient mid;
  { Status c = mid.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t mid_handle = 0;
  ASSERT_TRUE(
      mid.Prepare("_*.b", PrepareFrame::kQuery, &mid_handle, nullptr).ok());
  ASSERT_TRUE(mid.SendChunk(mid_handle, 1, prefix).ok());

  SleepMs(60);  // both documents admitted; finisher's session in flight
  stack.server->RequestDrain();
  EXPECT_TRUE(stack.server->draining());

  DocOutcome finished = finisher.Collect(1);
  ASSERT_TRUE(finished.status.ok()) << finished.status.ToString();
  EXPECT_EQ(finished.total, 64u);
  EXPECT_EQ(finished.certain, 64u);
  EXPECT_EQ(finished.results.size(), 64u);

  DocOutcome sealed = mid.Collect(1);
  EXPECT_EQ(sealed.status.code(), StatusCode::kCancelled)
      << sealed.status.ToString();
  const std::vector<std::string> oracle =
      OracleFor(*MustParseRpeq("_*.b"), EventsForPrefix(prefix));
  ASSERT_LE(sealed.certain, oracle.size());
  for (uint64_t i = 0; i < sealed.certain; ++i) {
    EXPECT_EQ(sealed.results[i].fragment, oracle[i]) << i;
  }
  EXPECT_GE(sealed.certain, 2u);  // both complete <b> elements were certain

  EXPECT_TRUE(finisher.drain_received() || mid.drain_received());

  stack.server->Join();
  EXPECT_TRUE(stack.server->drained());
  EXPECT_FALSE(stack.server->running());

  // New connections are refused after the drain completed.
  SpexClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", stack.server->port()).ok());
}

TEST(NetServer, StreamDuringDrainIsShedUnavailable) {
  // Workers stall so the END_DOC'd document keeps its connection alive
  // across the drain — a draining server refuses *new* documents on that
  // still-serving connection with kUnavailable while finishing the old one.
  Stack stack(NetServerOptions{}, /*threads=*/2,
              /*before_batch=*/[](int) { SleepMs(60); });
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(
      client.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  ASSERT_TRUE(client.SendChunk(handle, 1, kDoc).ok());
  ASSERT_TRUE(client.SendEndDoc(handle, 1).ok());
  SleepMs(20);  // doc 1 admitted and sealed, session in flight

  stack.server->RequestDrain();
  SleepMs(20);  // DRAIN announced

  ASSERT_TRUE(client.SendChunk(handle, 2, "<doc/>").ok());
  ASSERT_TRUE(client.SendEndDoc(handle, 2).ok());
  DocOutcome shed = client.Collect(2);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable)
      << shed.status.ToString();

  // The in-flight document still completes with all its results.
  DocOutcome outcome = client.Collect(1);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.total, 3u);

  stack.server->Join();
  EXPECT_TRUE(stack.server->drained());
}

// ---------------------------------------------------------------------------
// SessionDirectory churn regression (the reap-on-insert fix): dead weak
// refs must not crowd out the capacity-bounded window.

TEST(NetServer, SessionDirectoryReapsDeadEntriesUnderChurn) {
  PoolOptions pool_options;
  pool_options.threads = 2;
  EnginePool pool(pool_options);
  CompiledQueryCache cache(8);
  SessionDirectory directory(8);

  // Churn far past capacity: every session is dead by the next insert.
  std::vector<std::weak_ptr<StreamSession>> sessions;
  for (int i = 0; i < 100; ++i) {
    auto open = pool.OpenSession("_*.b", &cache);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    {
      std::shared_ptr<StreamSession> session = *open;
      directory.Register(session, EngineLimits{});
      session->Close();
      session->Wait();
      sessions.push_back(session);
    }
    ASSERT_LE(directory.size(), 8u) << "insert " << i;
  }
  // Wait() returning does not mean the worker dropped its reference yet,
  // and each of the two workers drops its own in its own time; wait for
  // every session to truly expire so the reap is observable.
  auto all_expired = [&sessions] {
    for (const auto& session : sessions) {
      if (!session.expired()) return false;
    }
    return true;
  };
  for (int spin = 0; spin < 200 && !all_expired(); ++spin) SleepMs(10);
  ASSERT_TRUE(all_expired());

  // One live registration: every expired entry is reaped on the insert, so
  // the directory holds exactly the live session (pre-fix it would hold
  // capacity-1 corpses plus this one).
  auto open = pool.OpenSession("doc.a.live", &cache);
  ASSERT_TRUE(open.ok());
  std::shared_ptr<StreamSession> live = *open;
  directory.Register(live, EngineLimits{});
  EXPECT_EQ(directory.size(), 1u);
  EXPECT_NE(directory.ToJson().find("doc.a.live"), std::string::npos);
  live->Close();
  live->Wait();
}

TEST(NetServer, SessionsAppearInDirectory) {
  SessionDirectory directory(16);
  NetServerOptions options;
  Stack stack(options, 2, nullptr, &directory);
  SpexClient client;
  { Status c = client.Connect("127.0.0.1", stack.server->port()); ASSERT_TRUE(c.ok()) << c.ToString(); }
  uint32_t handle = 0;
  ASSERT_TRUE(client
                  .Prepare("doc.a.directory_probe", PrepareFrame::kQuery,
                           &handle, nullptr)
                  .ok());
  ASSERT_TRUE(client.StreamDocument(handle, 1, kDoc).status.ok());
  EXPECT_NE(directory.ToJson().find("directory_probe"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire-level chaos soak: ≥256 sessions through ChaosProxy with a seeded
// fault schedule.  Contract per session:
//   * the client always reaches a definite terminal status (no hang),
//   * an OK terminal matches the full-document DOM oracle exactly,
//   * any terminal's certain results are sound: each certain fragment is a
//     result of the full document (a certain result holds under ANY
//     continuation — in particular the one the fault cut off), and
//     certain <= total,
//   * the server survives with zero crashes and serves cleanly afterwards.

struct ChaosCase {
  std::string query;
  std::string doc;
  std::vector<std::string> oracle;  // full-document DOM oracle
};

TEST(NetServerChaos, WireChaosSoak256Sessions) {
  PoolOptions pool_options;
  pool_options.threads = 4;
  EnginePool pool(pool_options);
  CompiledQueryCache cache(64);
  NetServerOptions options;
  options.max_connections = 512;
  options.max_docs_in_flight = 512;
  options.idle_timeout_ms = 2000;
  options.doc_deadline_ms = 2000;
  NetServer server(&pool, &cache, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const uint64_t kSeed = 0xC0FFEEull;
  FaultInjector injector(kSeed, /*fault_rate_percent=*/75);
  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  proxy_options.byte_budget = 512;  // cuts land inside handshake/first doc
  ChaosProxy proxy(&injector, proxy_options);
  ASSERT_TRUE(proxy.Start(&error)) << error;

  // A small corpus; oracles precomputed on the full documents.
  std::vector<ChaosCase> corpus;
  {
    std::string deep = "<doc>";
    for (int i = 0; i < 40; ++i) deep += "<a><b>x" + std::to_string(i) + "</b></a>";
    deep += "</doc>";
    for (const auto& [query, doc] :
         std::vector<std::pair<std::string, std::string>>{
             {"_*.b", kDoc},
             {"doc.a.b", kDoc},
             {"_*.a[b].c", kDoc},
             {"_*.b", deep},
         }) {
      ChaosCase c;
      c.query = query;
      c.doc = doc;
      c.oracle = DomEvaluateToStrings(*MustParseRpeq(query), doc);
      corpus.push_back(std::move(c));
    }
  }

  constexpr int kThreads = 16;
  constexpr int kPerThread = 16;  // 256 sessions total
  std::atomic<int64_t> terminals{0};
  std::atomic<int64_t> ok_terminals{0};
  std::atomic<int64_t> error_terminals{0};
  std::atomic<int64_t> transport_terminals{0};
  std::atomic<int64_t> soundness_failures{0};

  auto worker = [&](int thread_index) {
    for (int i = 0; i < kPerThread; ++i) {
      const ChaosCase& c =
          corpus[(thread_index * kPerThread + i) % corpus.size()];
      ClientOptions copts;
      copts.io_timeout_ms = 4000;
      copts.chunk_bytes = 256;  // several STREAM frames per document
      SpexClient client(copts);
      Status connected = client.Connect("127.0.0.1", proxy.port());
      if (!connected.ok()) {
        // Fault hit the handshake; still a definite terminal.
        terminals.fetch_add(1);
        transport_terminals.fetch_add(1);
        continue;
      }
      uint32_t handle = 0;
      Status prepared =
          client.Prepare(c.query, PrepareFrame::kQuery, &handle, nullptr);
      if (!prepared.ok()) {
        terminals.fetch_add(1);
        transport_terminals.fetch_add(1);
        continue;
      }
      DocOutcome outcome = client.StreamDocument(handle, 1, c.doc);
      terminals.fetch_add(1);
      if (outcome.status.ok()) {
        ok_terminals.fetch_add(1);
        std::vector<std::string> got;
        for (const ClientResult& r : outcome.results) {
          if (!r.certain) {
            soundness_failures.fetch_add(1);
            ADD_FAILURE() << "speculative result in OK terminal: " << r.fragment
                          << " (" << c.query << ")";
          }
          got.push_back(r.fragment);
        }
        if (got != c.oracle || outcome.certain != c.oracle.size()) {
          soundness_failures.fetch_add(1);
          ADD_FAILURE() << "OK terminal diverges from oracle for " << c.query;
        }
        continue;
      }
      const bool server_terminal = outcome.terminal_frame;
      if (server_terminal) {
        error_terminals.fetch_add(1);
      } else {
        // Transport-level terminal (RST, truncated response, timeout).
        transport_terminals.fetch_add(1);
      }
      if (outcome.certain > outcome.total) {
        soundness_failures.fetch_add(1);
        ADD_FAILURE() << "terminal reports certain " << outcome.certain
                      << " > total " << outcome.total << " (" << c.query
                      << ", status " << outcome.status.ToString() << ")";
      }
      // Certainty soundness: every certain fragment must be a result of the
      // full document (multiset containment).
      std::map<std::string, int64_t> budget;
      for (const std::string& fragment : c.oracle) budget[fragment]++;
      uint64_t certain_seen = 0;
      for (const ClientResult& r : outcome.results) {
        if (!r.certain) continue;
        ++certain_seen;
        auto it = budget.find(r.fragment);
        if (it == budget.end() || it->second == 0) {
          soundness_failures.fetch_add(1);
          ADD_FAILURE() << "certain fragment not in full-doc oracle: "
                        << r.fragment << " (" << c.query << ")";
        } else {
          it->second--;
        }
      }
      // Totals are only authoritative when a server terminal frame arrived;
      // a transport cut leaves them at zero with results legitimately
      // already streamed.
      if (server_terminal && certain_seen > outcome.total) {
        soundness_failures.fetch_add(1);
        ADD_FAILURE() << "streamed " << certain_seen
                      << " certain results but terminal total is "
                      << outcome.total << " (" << c.query << ", status "
                      << outcome.status.ToString() << ")";
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(terminals.load(), kThreads * kPerThread);
  EXPECT_EQ(soundness_failures.load(), 0);
  EXPECT_GE(proxy.connections_proxied(), kThreads * kPerThread);
  EXPECT_GT(proxy.faults_injected(), 0) << "seeded schedule injected nothing";
  // The fault rate leaves ~25% of connections clean; they must have
  // completed OK.
  EXPECT_GT(ok_terminals.load(), 0);

  // The server survived: a clean connection (not through the proxy) is
  // byte-correct after the soak.
  ASSERT_TRUE(server.running());
  SpexClient clean;
  ASSERT_TRUE(clean.Connect("127.0.0.1", server.port()).ok());
  uint32_t handle = 0;
  ASSERT_TRUE(
      clean.Prepare("_*.b", PrepareFrame::kQuery, &handle, nullptr).ok());
  DocOutcome outcome = clean.StreamDocument(handle, 1, kDoc);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  const std::vector<std::string> oracle =
      DomEvaluateToStrings(*MustParseRpeq("_*.b"), std::string(kDoc));
  std::vector<std::string> got;
  for (const ClientResult& r : outcome.results) got.push_back(r.fragment);
  EXPECT_EQ(got, oracle);

  proxy.Stop();
  SCOPED_TRACE("soak seed " + std::to_string(kSeed));
}

}  // namespace
}  // namespace net
}  // namespace spex
