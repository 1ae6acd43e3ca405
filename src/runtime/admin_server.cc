#include "runtime/admin_server.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "xml/simd_scan.h"

// Injected by src/runtime/CMakeLists.txt (git short sha of the checkout);
// the fallback covers builds outside a git checkout.
#ifndef SPEX_BUILD_SHA
#define SPEX_BUILD_SHA "unknown"
#endif

namespace spex {
namespace {

int64_t WallNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

const char* LiveStateName(LiveSessionInfo::State state) {
  switch (state) {
    case LiveSessionInfo::kStreaming: return "streaming";
    case LiveSessionInfo::kFinished: return "finished";
    case LiveSessionInfo::kFailed: return "failed";
  }
  return "unknown";
}

// One configured limit's headroom: {"limit": L, "used": U, "remaining": R}.
void AppendHeadroom(std::string* out, bool* first, const char* name,
                    int64_t limit, int64_t used) {
  if (limit <= 0) return;  // unset limits have no headroom to report
  if (!*first) *out += ", ";
  *first = false;
  *out += "\"";
  *out += name;
  *out += "\": {\"limit\": " + std::to_string(limit) +
          ", \"used\": " + std::to_string(used) +
          ", \"remaining\": " + std::to_string(std::max<int64_t>(0, limit - used)) +
          "}";
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionDirectory

SessionDirectory::SessionDirectory(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

int64_t SessionDirectory::Register(
    const std::shared_ptr<StreamSession>& session,
    const EngineLimits& limits) {
  Entry entry;
  // The pool-assigned id, not a directory-private counter: /sessions, the
  // slow-query log and /flight must agree on what "session 7" means.
  entry.id = session->id();
  entry.query = session->query();
  entry.worker = session->worker();
  entry.limits = limits;
  entry.opened_wall_ms = WallNowMs();
  entry.session = session;
  const int64_t id = entry.id;

  std::lock_guard<std::mutex> lock(mu_);
  // Reap entries whose session is gone on every insert: a churn of
  // short-lived sessions otherwise fills the directory with dead weak_ptrs
  // while pushing still-running sessions out of /sessions.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->session.expired()) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  entries_.push_back(std::move(entry));
  while (entries_.size() > capacity_) entries_.pop_front();
  return id;
}

size_t SessionDirectory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string SessionDirectory::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"sessions\": [";
  bool first = true;
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    const Entry& entry = *it;
    if (!first) out += ",\n";
    first = false;
    out += "{\"id\": " + std::to_string(entry.id) + ", \"query\": \"" +
           obs::EscapeJson(entry.query) +
           "\", \"worker\": " + std::to_string(entry.worker) +
           ", \"opened_wall_ms\": " + std::to_string(entry.opened_wall_ms);
    const std::shared_ptr<StreamSession> session = entry.session.lock();
    if (session == nullptr) {
      out += ", \"state\": \"gone\"}";
      continue;
    }
    const LiveSessionInfo live = session->Live();
    out += ", \"state\": \"";
    out += LiveStateName(live.state);
    out += "\", \"events\": " + std::to_string(live.events) +
           ", \"results\": " + std::to_string(live.results) +
           ", \"buffered_events\": " + std::to_string(live.buffered_events) +
           ", \"buffered_bytes\": " + std::to_string(live.buffered_bytes);
    if (live.state == LiveSessionInfo::kFailed) {
      out += ", \"status\": \"";
      out += StatusCodeName(live.status_code);
      out += "\"";
    }
    out += ", \"limits\": {";
    bool first_limit = true;
    AppendHeadroom(&out, &first_limit, "max_buffered_bytes",
                   entry.limits.max_buffered_bytes, live.buffered_bytes);
    AppendHeadroom(&out, &first_limit, "max_events", entry.limits.max_events,
                   live.events);
    AppendHeadroom(&out, &first_limit, "deadline_ms", entry.limits.deadline_ms,
                   WallNowMs() - entry.opened_wall_ms);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// AdminServer

AdminServer::AdminServer(EnginePool* pool, AdminOptions options)
    : pool_(pool),
      options_(options),
      directory_(options.directory_capacity),
      sampler_(&pool->metrics(),
               {options.sampler_interval_ms, options.sampler_ring_capacity}),
      queries_(options.queries != nullptr ? options.queries : &own_queries_),
      start_time_(std::chrono::steady_clock::now()),
      http_([this](const obs::HttpRequest& request) { return Handle(request); },
            options.http) {
  pool_->metrics().SetHelp("spex_admin_requests",
                           "HTTP requests served by the admin plane.");
  pool_->metrics().AddCallbackCounter("spex_admin_requests", {},
                                      [this] { return http_.requests(); });
  pool_->metrics().SetHelp("spex_slow_queries",
                           "Slow-query log records emitted.");
  pool_->metrics().AddCallbackCounter(
      "spex_slow_queries", {}, [this] { return queries_->slow_queries(); });
  pool_->metrics().SetHelp("spex_flight_dumps",
                           "Flight-recorder dumps frozen on session failure.");
  pool_->metrics().AddCallbackCounter(
      "spex_flight_dumps", {}, [this] { return queries_->flight_dumps(); });
}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start(std::string* error) {
  if (!http_.Start(error)) return false;
  // Install the query registry only if the pool has none yet: a serving
  // tier that wired its own (shared) registry keeps it.
  if (pool_->query_registry() == nullptr) {
    pool_->SetQueryRegistry(queries_);
  }
  sampler_.Start();
  started_ = true;
  return true;
}

void AdminServer::Stop() {
  if (!started_) return;
  started_ = false;
  http_.Stop();
  sampler_.Stop();
  if (pool_->query_registry() == queries_) pool_->SetQueryRegistry(nullptr);
}

obs::HttpResponse AdminServer::Handle(const obs::HttpRequest& request) {
  if (request.path == "/" || request.path == "/index") {
    return obs::HttpResponse::Text(
        "spex admin plane\n"
        "  /metrics        Prometheus text exposition\n"
        "  /metrics.json   registry snapshot as JSON\n"
        "  /healthz        pool liveness + quarantine counts\n"
        "  /sessions       per-session live state\n"
        "  /stats?window=N rates + latency quantiles over N seconds\n"
        "  /queries?sort=time|events|delay&k=K   per-query RED metrics +\n"
        "                  sampled attribution (format=json for JSON;\n"
        "                  slow_ms= / slow_delay_ms= mutate thresholds)\n"
        "  /flight?session=N   post-mortem flight dumps of failed sessions\n"
        "  /trace?ms=N     capture window -> Chrome trace JSON\n"
        "  /profile?ms=N   capture window -> EXPLAIN/PROFILE reports\n");
  }
  if (request.path == "/metrics") {
    // Pool registry families, then the per-query families (rendered by the
    // registry itself — its label sets churn with entries, which the
    // up-front-registration MetricRegistry deliberately does not model).
    std::string body = pool_->metrics().Collect().ToPrometheusText();
    body += queries_->PrometheusText();
    return obs::HttpResponse::Text(std::move(body));
  }
  if (request.path == "/metrics.json") {
    return obs::HttpResponse::Json(pool_->metrics().Collect().ToJson());
  }
  if (request.path == "/healthz") {
    const obs::MetricsSnapshot snap = pool_->metrics().Collect();
    const int64_t opened = snap.Value("spex_pool_sessions_opened");
    const int64_t finished = snap.Value("spex_pool_sessions_finished");
    const int64_t failed = snap.SumAll("spex_pool_sessions_failed");
    const int64_t uptime_sec =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start_time_)
            .count();
    std::string body = "{\"status\": \"ok\", \"workers\": " +
                       std::to_string(snap.Value("spex_pool_workers")) +
                       ", \"sessions_open\": " +
                       std::to_string(opened - finished) +
                       ", \"sessions_finished\": " + std::to_string(finished) +
                       ", \"sessions_quarantined\": " + std::to_string(failed) +
                       ", \"backpressure_waits\": " +
                       std::to_string(
                           snap.Value("spex_pool_backpressure_waits")) +
                       ", \"admin_requests\": " +
                       std::to_string(http_.requests()) +
                       ", \"simd_backend\": \"" + scan::BackendName() +
                       "\", \"build\": \"" SPEX_BUILD_SHA
                       "\", \"uptime_sec\": " + std::to_string(uptime_sec) +
                       ", \"queries\": " + std::to_string(queries_->size()) +
                       ", \"slow_queries\": " +
                       std::to_string(queries_->slow_queries()) +
                       ", \"flight_dumps\": " +
                       std::to_string(queries_->flight_dumps()) + "}\n";
    return obs::HttpResponse::Json(std::move(body));
  }
  if (request.path == "/sessions") {
    return obs::HttpResponse::Json(directory_.ToJson());
  }
  if (request.path == "/queries") {
    // Threshold mutation rides on the same endpoint (the admin plane is
    // GET-only by design; these are runtime-tunable knobs, not state
    // transitions).  -1 = leave unchanged.
    const int64_t slow_ms = request.QueryParamInt("slow_ms", -1);
    if (slow_ms >= 0) queries_->set_slow_ms(slow_ms);
    const int64_t slow_delay_ms = request.QueryParamInt("slow_delay_ms", -1);
    if (slow_delay_ms >= 0) queries_->set_slow_delay_ms(slow_delay_ms);
    QueryRegistry::Sort sort = QueryRegistry::Sort::kTime;
    QueryRegistry::ParseSort(request.QueryParam("sort", "time"), &sort);
    const int k = static_cast<int>(request.QueryParamInt("k", 0));
    if (request.QueryParam("format") == "json") {
      return obs::HttpResponse::Json(queries_->ToJson(sort, k));
    }
    return obs::HttpResponse::Text(queries_->ToText(sort, k));
  }
  if (request.path == "/flight") {
    const int64_t session = request.QueryParamInt("session", -1);
    return obs::HttpResponse::Json(queries_->FlightJson(session));
  }
  if (request.path == "/stats") {
    const int64_t window = request.QueryParamInt("window", 60);
    return obs::HttpResponse::Json(
        sampler_.ComputeWindow(static_cast<double>(window)).ToJson());
  }
  if (request.path == "/trace" || request.path == "/profile") {
    const bool trace = request.path == "/trace";
    const int64_t ms =
        std::clamp<int64_t>(request.QueryParamInt("ms", 500), 1, kMaxCaptureMs);
    CaptureHub& capture = pool_->capture();
    if (trace) {
      capture.ArmTrace(ms);
    } else {
      capture.ArmProfile(ms);
    }
    // The capture window observes the sessions streaming while we sleep;
    // blocking the (single-connection) exposition thread for it is
    // deliberate.
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return obs::HttpResponse::Json(trace ? capture.TraceJson()
                                         : capture.ProfileJson());
  }
  return obs::HttpResponse::Error(404, "unknown endpoint; see /");
}

}  // namespace spex
