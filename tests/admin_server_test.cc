// Tests of the live telemetry plane (DESIGN.md §12): the embedded HTTP
// exposition server, the AdminServer endpoint contract over a real
// EnginePool, session directory semantics, trace/profile capture windows,
// the telemetry sampler, and — run under TSan in CI — a concurrent-scrape
// stress that hammers /metrics, /stats and /sessions from client threads
// while the pool serves chaos-mutated sessions, asserting monotone
// counters and snapshot coherence (sum of per-worker events >= pool total,
// histogram +Inf bucket == _count) on every scrape.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_exposition.h"
#include "obs/sampler.h"
#include "runtime/admin_server.h"
#include "runtime/engine_pool.h"
#include "runtime/fault_injector.h"
#include "runtime/query_cache.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/xml_parser.h"

namespace spex {
namespace {

using obs::HttpGet;
using obs::HttpRequest;
using obs::HttpResponse;
using obs::HttpServer;
using obs::HttpServerOptions;

constexpr char kDoc[] =
    "<lib><book><author>A</author><title>T1</title></book>"
    "<book><title>T2</title></book>"
    "<book><author>B</author><title>T3</title></book></lib>";

std::vector<StreamEvent> DocEvents(const std::string& doc = kDoc) {
  std::vector<StreamEvent> events;
  EXPECT_TRUE(ParseXmlToEvents(doc, &events, XmlParserOptions{}).ok());
  return events;
}

// Sends raw bytes to the server and returns everything it answers — for the
// malformed / non-GET / oversized request paths HttpGet can't produce.
std::string RawRequest(uint16_t port, const std::string& data) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  std::string out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

// Sums every sample line of `family` (exact name, any label set) in a
// Prometheus text exposition.
int64_t SumFamily(const std::string& text, const std::string& family) {
  int64_t sum = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind(family, 0) != 0) continue;
    const char next =
        line.size() > family.size() ? line[family.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    sum += std::stoll(line.substr(line.rfind(' ') + 1));
  }
  return sum;
}

// Checks that every histogram in the exposition is internally coherent:
// its +Inf cumulative bucket equals its _count, per labelled instance.
// With AtomicHistogram there is no stored count (Collect derives it from
// the bucket reads), so this must hold on every scrape, torn or not.
void CheckHistogramCoherence(const std::string& text, std::string* error) {
  std::map<std::string, int64_t> counts, infs;
  std::set<std::string> summaries;  // families declared `# TYPE ... summary`
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0 &&
        line.size() > 8 && line.compare(line.size() - 8, 8, " summary") == 0) {
      summaries.insert(line.substr(7, line.size() - 7 - 8));
    }
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    const std::string key = line.substr(0, space);
    const int64_t value = std::stoll(line.substr(space + 1));
    const size_t brace = key.find('{');
    std::string name = brace == std::string::npos ? key : key.substr(0, brace);
    std::string labels =
        brace == std::string::npos ? "" : key.substr(brace);
    auto ends_with = [&name](const char* suffix) {
      const size_t n = std::strlen(suffix);
      return name.size() >= n &&
             name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends_with("_count")) {
      // Summary families (quantile exposition, e.g. the per-query RED
      // latency digests) carry _sum/_count but no buckets by design.
      if (summaries.count(name.substr(0, name.size() - 6)) == 0) {
        counts[name.substr(0, name.size() - 6) + labels] = value;
      }
    } else if (ends_with("_bucket")) {
      const size_t inf = labels.find("le=\"+Inf\"");
      if (inf == std::string::npos) continue;
      // Strip the le label (and its leading comma when not alone).
      std::string stripped = labels;
      const size_t from = inf > 1 && stripped[inf - 1] == ',' ? inf - 1 : inf;
      stripped.erase(from, inf - from + std::strlen("le=\"+Inf\""));
      if (stripped == "{}") stripped.clear();
      infs[name.substr(0, name.size() - 7) + stripped] = value;
    }
  }
  for (const auto& [id, count] : counts) {
    auto it = infs.find(id);
    if (it == infs.end()) {
      *error = "histogram " + id + " has _count but no +Inf bucket";
      return;
    }
    if (it->second != count) {
      *error = "histogram " + id + ": +Inf bucket " +
               std::to_string(it->second) + " != _count " +
               std::to_string(count);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// HttpServer

TEST(HttpServerTest, GetRoundTripWithQueryParams) {
  HttpServer server([](const HttpRequest& request) {
    HttpResponse r = HttpResponse::Text(
        "path=" + request.path + " a=" + request.QueryParam("a", "none") +
        " n=" + std::to_string(request.QueryParamInt("n", -1)));
    return r;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/echo?a=1&n=42", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "path=/echo a=1 n=42");

  ASSERT_TRUE(HttpGet(server.port(), "/plain", &status, &body));
  EXPECT_EQ(body, "path=/plain a=none n=-1");

  // Percent-encoded paths are decoded before dispatch.
  ASSERT_TRUE(HttpGet(server.port(), "/a%20b", &status, &body));
  EXPECT_EQ(body, "path=/a b a=none n=-1");

  EXPECT_GE(server.requests(), 3);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, HandlerStatusPropagates) {
  HttpServer server([](const HttpRequest& request) {
    if (request.path == "/ok") return HttpResponse::Text("fine");
    return HttpResponse::Error(404, "nope");
  });
  ASSERT_TRUE(server.Start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/missing", &status, &body));
  EXPECT_EQ(status, 404);
  EXPECT_NE(body.find("nope"), std::string::npos);
  ASSERT_TRUE(HttpGet(server.port(), "/ok", &status, &body));
  EXPECT_EQ(status, 200);
  server.Stop();
}

TEST(HttpServerTest, RejectsNonGetMalformedAndOversized) {
  HttpServerOptions options;
  options.max_request_bytes = 256;
  HttpServer server(
      [](const HttpRequest&) { return HttpResponse::Text("ok"); }, options);
  ASSERT_TRUE(server.Start());

  std::string reply =
      RawRequest(server.port(), "POST / HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(reply.find("405"), std::string::npos) << reply;

  reply = RawRequest(server.port(), "NOT-HTTP-AT-ALL\r\n\r\n");
  EXPECT_NE(reply.find("400"), std::string::npos) << reply;

  // A request larger than the bound is cut off with 431.
  std::string big = "GET /";
  big.append(1024, 'x');
  big += " HTTP/1.1\r\n\r\n";
  reply = RawRequest(server.port(), big);
  EXPECT_NE(reply.find("431"), std::string::npos) << reply;

  // The server survives all of the above and still serves.
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/", &status, &body));
  EXPECT_EQ(status, 200);
  server.Stop();
}

// ---------------------------------------------------------------------------
// AdminServer endpoints over a live pool.

TEST(AdminServerTest, EndpointsServeOverHttp) {
  PoolOptions pool_options;
  pool_options.threads = 2;
  EnginePool pool(pool_options);
  AdminServer admin(&pool);
  std::string error;
  ASSERT_TRUE(admin.Start(&error)) << error;
  ASSERT_NE(admin.port(), 0);

  // Run two sessions so every surface has data.  The owning references are
  // kept alive so /sessions reports live state rather than "gone".
  CompiledQueryCache cache(8);
  const std::vector<StreamEvent> events = DocEvents();
  std::vector<std::shared_ptr<StreamSession>> sessions;
  for (const char* q : {"_*.book[author].title", "_*.title"}) {
    auto open = pool.OpenSession(q, &cache);
    ASSERT_TRUE(open.ok());
    admin.directory().Register(*open, EngineLimits{});
    (*open)->Feed(events);
    (*open)->Close();
    (*open)->Wait();
    sessions.push_back(*open);
  }

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(admin.port(), "/", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("/metrics"), std::string::npos);

  ASSERT_TRUE(HttpGet(admin.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("# TYPE spex_pool_events_processed counter"),
            std::string::npos);
  EXPECT_NE(body.find("# HELP spex_pool_feed_to_result_us"),
            std::string::npos);
  EXPECT_EQ(SumFamily(body, "spex_pool_events_processed"),
            2 * static_cast<int64_t>(events.size()));
  std::string coherence;
  CheckHistogramCoherence(body, &coherence);
  EXPECT_TRUE(coherence.empty()) << coherence;

  ASSERT_TRUE(HttpGet(admin.port(), "/metrics.json", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"spex_pool_sessions_finished\""), std::string::npos);

  ASSERT_TRUE(HttpGet(admin.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"sessions_finished\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"sessions_quarantined\": 0"), std::string::npos);

  ASSERT_TRUE(HttpGet(admin.port(), "/sessions", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("_*.book[author].title"), std::string::npos);
  EXPECT_NE(body.find("\"state\": \"finished\""), std::string::npos);
  EXPECT_NE(body.find("\"events\": " + std::to_string(events.size())),
            std::string::npos);

  ASSERT_TRUE(HttpGet(admin.port(), "/stats?window=60", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"rates\""), std::string::npos);
  EXPECT_NE(body.find("\"quantiles\""), std::string::npos);

  // Tiny capture windows: no session streams inside them, so the captures
  // are valid-but-empty.
  ASSERT_TRUE(HttpGet(admin.port(), "/trace?ms=10", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  ASSERT_TRUE(HttpGet(admin.port(), "/profile?ms=10", &status, &body));
  EXPECT_EQ(status, 200);

  ASSERT_TRUE(HttpGet(admin.port(), "/definitely-not-there", &status, &body));
  EXPECT_EQ(status, 404);

  admin.Stop();
  EXPECT_FALSE(admin.running());
}

TEST(AdminServerTest, SessionDirectoryReportsLimitsEvictionAndGone) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  CompiledQueryCache cache(8);
  SessionDirectory directory(/*capacity=*/2);

  EngineLimits limits;
  limits.max_buffered_bytes = 1 << 20;
  limits.max_events = 1000;

  auto run = [&](const char* query) {
    auto open = pool.OpenSession(query, &cache);
    EXPECT_TRUE(open.ok());
    directory.Register(*open, limits);
    (*open)->Feed(DocEvents());
    (*open)->Close();
    (*open)->Wait();
    return *open;
  };

  auto a = run("_*.title");
  auto b = run("_*.book");
  std::string json = directory.ToJson();
  // Newest first.
  EXPECT_LT(json.find("_*.book"), json.find("_*.title"));
  // Limits headroom: remaining = limit - used.
  EXPECT_NE(json.find("\"max_events\""), std::string::npos);
  EXPECT_NE(json.find("\"limit\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"remaining\""), std::string::npos);

  // A third registration evicts the oldest (bounded window, not a log).
  auto c = run("_*.author");
  EXPECT_EQ(directory.size(), 2u);
  json = directory.ToJson();
  EXPECT_EQ(json.find("_*.title"), std::string::npos);
  EXPECT_NE(json.find("_*.author"), std::string::npos);

  // Dropping the owning reference turns the entry "gone", not dangling.
  b.reset();
  json = directory.ToJson();
  EXPECT_NE(json.find("\"state\": \"gone\""), std::string::npos);
}

TEST(AdminServerTest, TraceCaptureWindowObservesSessions) {
  PoolOptions pool_options;
  pool_options.threads = 2;
  EnginePool pool(pool_options);
  AdminServer admin(&pool);
  ASSERT_TRUE(admin.Start());

  admin.capture().ArmTrace(AdminServer::kMaxCaptureMs);
  CompiledQueryCache cache(8);
  auto open = pool.OpenSession("_*.book[author].title", &cache);
  ASSERT_TRUE(open.ok());
  (*open)->Feed(DocEvents());
  (*open)->Close();
  (*open)->Wait();
  // The hub merges the session's recorder out at finalization, which
  // Wait() ordered before our read.
  EXPECT_EQ(admin.capture().trace_sessions(), 1);
  const std::string trace = admin.capture().TraceJson();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("spex worker"), std::string::npos);
  EXPECT_NE(trace.find("/stream"), std::string::npos);  // worker-prefixed

  // Draining twice sees the same capture; re-arming clears it.
  EXPECT_EQ(admin.capture().TraceJson(), trace);
  admin.capture().ArmTrace(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(admin.capture().trace_sessions(), 0);

  admin.Stop();
}

TEST(AdminServerTest, ProfileCaptureWindowCollectsReports) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  AdminServer admin(&pool);
  ASSERT_TRUE(admin.Start());

  admin.capture().ArmProfile(AdminServer::kMaxCaptureMs);
  CompiledQueryCache cache(8);
  auto open = pool.OpenSession("_*.title", &cache);
  ASSERT_TRUE(open.ok());
  (*open)->Feed(DocEvents());
  (*open)->Close();
  (*open)->Wait();
  EXPECT_EQ(admin.capture().profile_sessions(), 1);
  const std::string profile = admin.capture().ProfileJson();
  EXPECT_NE(profile.find("\"profiles\": ["), std::string::npos);
  EXPECT_NE(profile.find("\"query\""), std::string::npos);

  admin.Stop();
}

// Capture attaches to live runs: trace and profile windows armed after half
// a document has been swept capture the rest of that session, and the
// captured session's results are byte-identical to an uncaptured run's.
TEST(AdminServerTest, CaptureWindowsArmedMidDocumentAttachLive) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  AdminServer admin(&pool);
  ASSERT_TRUE(admin.Start());
  CompiledQueryCache cache(8);
  const std::vector<StreamEvent> events = DocEvents();
  const size_t half = events.size() / 2;

  auto run = [&](bool arm_halfway) {
    auto open = pool.OpenSession("_*.book[author].title", &cache);
    EXPECT_TRUE(open.ok());
    std::shared_ptr<StreamSession> session = *open;
    session->Feed(
        std::vector<StreamEvent>(events.begin(), events.begin() + half));
    if (arm_halfway) {
      while (session->Live().events < static_cast<int64_t>(half)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      admin.capture().ArmTrace(AdminServer::kMaxCaptureMs);
      admin.capture().ArmProfile(AdminServer::kMaxCaptureMs);
    }
    session->Feed(
        std::vector<StreamEvent>(events.begin() + half, events.end()));
    session->Close();
    return std::vector<std::string>(session->Wait());
  };
  const std::vector<std::string> uncaptured = run(false);
  ASSERT_FALSE(uncaptured.empty());
  EXPECT_EQ(admin.capture().trace_sessions(), 0);
  EXPECT_EQ(run(true), uncaptured);

  EXPECT_EQ(admin.capture().trace_sessions(), 1);
  const std::string trace = admin.capture().TraceJson();
  EXPECT_NE(trace.find("w0/stream"), std::string::npos);
  // The stream track holds one span per sweep of the second half, and
  // nothing before it.  The second half is one engine batch; its sweeps are
  // cut before each </book> (the qualifier's scope exit) that follows a
  // start tag of the same sweep (DESIGN.md §11).
  ASSERT_LE(events.size() - half,
            static_cast<size_t>(EngineOptions{}.batch_size));
  size_t sweeps = 1;
  bool holds_start = false;
  for (size_t i = half; i < events.size(); ++i) {
    const StreamEvent& e = events[i];
    if (e.kind == EventKind::kEndElement && e.name == "book" && holds_start) {
      ++sweeps;
      holds_start = false;
    }
    if (e.kind == EventKind::kStartElement) holds_start = true;
  }
  EXPECT_EQ(sweeps, 2u);
  const std::string stream_span = "\"ph\": \"X\", \"pid\": 1, \"tid\": 0,";
  size_t spans = 0;
  for (size_t at = trace.find(stream_span); at != std::string::npos;
       at = trace.find(stream_span, at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, sweeps);

  EXPECT_EQ(admin.capture().profile_sessions(), 1);
  const std::string profile = admin.capture().ProfileJson();
  EXPECT_NE(profile.find("\"timed\": true"), std::string::npos);
  EXPECT_NE(profile.find("_*.book[author].title"), std::string::npos);

  admin.Stop();
}

TEST(AdminServerTest, SamplerWindowComputesRates) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  obs::SamplerOptions sampler_options;
  obs::TelemetrySampler sampler(&pool.metrics(), sampler_options);

  sampler.SampleOnce();
  CompiledQueryCache cache(8);
  const std::vector<StreamEvent> events = DocEvents();
  auto open = pool.OpenSession("_*.title", &cache);
  ASSERT_TRUE(open.ok());
  (*open)->Feed(events);
  (*open)->Close();
  (*open)->Wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sampler.SampleOnce();

  ASSERT_EQ(sampler.ticks(), 2u);
  const obs::TelemetryWindow window = sampler.ComputeWindow(0);
  EXPECT_EQ(window.ticks, 2);
  EXPECT_GT(window.seconds, 0.0);
  bool found = false;
  for (const obs::TelemetryRate& rate : window.rates) {
    if (rate.name != "spex_pool_events_processed") continue;
    found = true;
    EXPECT_EQ(rate.delta, static_cast<int64_t>(events.size()));
    EXPECT_GT(rate.per_sec, 0.0);
  }
  EXPECT_TRUE(found);
  // Quantile families from the newest tick include the latency histograms.
  bool lat = false;
  for (const obs::TelemetryQuantiles& q : window.quantiles) {
    if (q.name != "spex_pool_feed_to_result_us") continue;
    lat = true;
    EXPECT_EQ(q.count, 1);
    EXPECT_LE(q.p50, q.p99);
  }
  EXPECT_TRUE(lat);
  // The JSON rendering carries both sections.
  const std::string json = window.ToJson();
  EXPECT_NE(json.find("\"rates\""), std::string::npos);
  EXPECT_NE(json.find("spex_pool_events_processed"), std::string::npos);
  // A full two-tick window is not partial.
  EXPECT_FALSE(window.partial);
  EXPECT_NE(json.find("\"partial\": false"), std::string::npos);
}

TEST(AdminServerTest, SamplerWindowEdgeCasesAnswerWellFormedPartials) {
  PoolOptions pool_options;
  pool_options.threads = 1;
  EnginePool pool(pool_options);
  obs::TelemetrySampler sampler(&pool.metrics());

  // Empty ring: a well-formed empty window that says it is one.
  obs::TelemetryWindow window = sampler.ComputeWindow(60);
  EXPECT_TRUE(window.partial);
  EXPECT_EQ(window.note, "no samples yet");
  EXPECT_EQ(window.ticks, 0);
  EXPECT_EQ(window.seconds, 0.0);
  EXPECT_TRUE(window.rates.empty());
  std::string json = window.ToJson();
  EXPECT_NE(json.find("\"partial\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("no samples yet"), std::string::npos);

  // Single tick: rates need two endpoints; quantiles still answer and no
  // zero-elapsed division happens (all per_sec are exactly 0).
  sampler.SampleOnce();
  window = sampler.ComputeWindow(60);
  EXPECT_TRUE(window.partial);
  EXPECT_NE(window.note.find("single sample"), std::string::npos);
  EXPECT_EQ(window.ticks, 1);
  EXPECT_EQ(window.seconds, 0.0);
  for (const obs::TelemetryRate& rate : window.rates) {
    EXPECT_EQ(rate.delta, 0);
    EXPECT_EQ(rate.per_sec, 0.0);
  }
  EXPECT_FALSE(window.quantiles.empty());

  // Window wider than the retained span: answers from the full ring and
  // flags the shortfall rather than pretending it covered an hour.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.SampleOnce();
  window = sampler.ComputeWindow(3600);
  EXPECT_TRUE(window.partial);
  EXPECT_NE(window.note.find("exceeds retained history"), std::string::npos);
  EXPECT_EQ(window.ticks, 2);
  EXPECT_GT(window.seconds, 0.0);

  // A window the ring can actually cover is not partial.
  window = sampler.ComputeWindow(0);
  EXPECT_FALSE(window.partial);
}

// ---------------------------------------------------------------------------
// Concurrent scrape: client threads hammer the admin plane while the pool
// serves chaos-mutated sessions.  Run under TSan in CI; the assertions are
// collected under a mutex (gtest expectations are not thread-safe).

TEST(ConcurrentScrapeTest, MetricsStayCoherentUnderLoad) {
  PoolOptions pool_options;
  pool_options.threads = 4;
  pool_options.queue_capacity = 4;
  EnginePool pool(pool_options);
  AdminServer admin(&pool);
  ASSERT_TRUE(admin.Start());
  const uint16_t port = admin.port();

  std::mutex errors_mu;
  std::vector<std::string> errors;
  auto report = [&](std::string message) {
    std::lock_guard<std::mutex> lock(errors_mu);
    errors.push_back(std::move(message));
  };

  std::atomic<bool> producing{true};

  // Producers: waves of chaos-mutated sessions (corrupt bytes, truncation,
  // tiny limits — every failure class the pool must absorb while scraped).
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      CompiledQueryCache cache(8);
      FaultInjector injector(0xC0FFEE + static_cast<uint64_t>(p),
                             /*fault_rate_percent=*/100);
      const std::vector<std::string> queries = {"_*.book[author].title",
                                                "_*.title", "_*.book"};
      for (uint64_t i = 0; i < 24; ++i) {
        const FaultPlan plan = injector.PlanForSession(i);
        const std::string doc =
            FaultInjector::ApplyToDocument(plan, kDoc);
        EngineLimits limits;
        FaultInjector::ApplyToLimits(plan, &limits);
        std::vector<StreamEvent> events;
        const Status parsed =
            ParseXmlToEvents(doc, &events, XmlParserOptions{});
        auto open =
            pool.OpenSession(queries[i % queries.size()], &cache);
        if (!open.ok()) {
          report("OpenSession failed: " + open.status().ToString());
          continue;
        }
        auto session = *open;
        if (limits.enabled()) session->OverrideLimits(limits);
        admin.directory().Register(session, limits);
        session->Feed(events);
        if (parsed.ok()) {
          session->Close();
        } else {
          session->Abort(parsed);
        }
        session->Wait();
      }
      producing.store(false, std::memory_order_relaxed);
    });
  }

  // Scrapers: every scrape must observe a coherent snapshot.
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([&, s] {
      int64_t last_total = 0;
      for (int i = 0; i < 15; ++i) {
        int status = 0;
        std::string body;
        if (!HttpGet(port, "/metrics", &status, &body) || status != 200) {
          report("scrape " + std::to_string(s) + "/metrics failed");
          continue;
        }
        const int64_t total = SumFamily(body, "spex_pool_events_processed");
        const int64_t per_worker =
            SumFamily(body, "spex_pool_worker_events");
        if (total < last_total) {
          report("events_processed went backwards: " +
                 std::to_string(last_total) + " -> " +
                 std::to_string(total));
        }
        last_total = total;
        // The total is registered before the per-worker counters, so one
        // Collect pass can never see per-worker sums lag the total.
        if (per_worker < total) {
          report("torn snapshot: sum(worker_events)=" +
                 std::to_string(per_worker) + " < total=" +
                 std::to_string(total));
        }
        std::string coherence;
        CheckHistogramCoherence(body, &coherence);
        if (!coherence.empty()) report(std::move(coherence));

        if (!HttpGet(port, "/stats?window=30", &status, &body) ||
            status != 200 || body.find("\"rates\"") == std::string::npos) {
          report("scrape /stats failed");
        }
        if (!HttpGet(port, "/sessions", &status, &body) || status != 200 ||
            body.find("\"sessions\"") == std::string::npos) {
          report("scrape /sessions failed");
        }
        if (!HttpGet(port, "/healthz", &status, &body) || status != 200 ||
            body.find("\"status\": \"ok\"") == std::string::npos) {
          report("scrape /healthz failed");
        }
      }
    });
  }

  for (std::thread& t : producers) t.join();
  for (std::thread& t : scrapers) t.join();
  admin.Stop();

  std::lock_guard<std::mutex> lock(errors_mu);
  for (const std::string& e : errors) ADD_FAILURE() << e;

  // Quiesced ground truth: per-worker events now equal the pool total.
  const std::string text = pool.metrics().Collect().ToPrometheusText();
  EXPECT_EQ(SumFamily(text, "spex_pool_worker_events"),
            SumFamily(text, "spex_pool_events_processed"));
  EXPECT_GT(SumFamily(text, "spex_pool_sessions_finished"), 0);
}

}  // namespace
}  // namespace spex
