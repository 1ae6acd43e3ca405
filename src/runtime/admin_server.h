// The live telemetry plane (DESIGN.md §12): an embedded HTTP admin endpoint
// over an EnginePool.
//
// Endpoints (all GET, all loopback by default):
//   /           — plain-text index
//   /metrics    — Prometheus text exposition of the pool registry
//   /metrics.json
//   /healthz    — liveness: worker count, open/finished/quarantined
//                 sessions, backpressure; JSON
//   /sessions   — per-session live state (events fed, results, buffered
//                 events/bytes, limits headroom, status), newest first
//   /stats?window=N  — per-interval rates + latency quantiles over the
//                 trailing N seconds of sampler history
//   /trace?ms=N — arms an N-millisecond capture window: live sessions get
//                 a worker-stamped trace recorder attached while it is
//                 armed; returns the merged Chrome trace JSON
//   /profile?ms=N — same window mechanism at profile granularity; returns
//                 an array of per-session EXPLAIN/PROFILE reports
//
// The capture windows are the pool's CaptureHub (runtime/capture_hub.h):
// the workers attach recorders and accumulators to live sessions while a
// window is armed and merge them out when it closes or the session ends.
//
// The HTTP handler runs on the exposition server's accept thread; /trace
// and /profile block that thread for the window (bounded by kMaxCaptureMs).
// Everything it touches is thread-safe by construction: the registry's
// atomic instruments, the sampler's mutex-guarded ring, the directory's
// mutex-guarded table, and sessions' Live() atomics.

#ifndef SPEX_RUNTIME_ADMIN_SERVER_H_
#define SPEX_RUNTIME_ADMIN_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "obs/http_exposition.h"
#include "obs/sampler.h"
#include "runtime/engine_pool.h"
#include "runtime/query_registry.h"

namespace spex {

// Bounded registry of the sessions a server has opened, for /sessions.
// Holds weak references: a session whose owner dropped it reports "gone"
// rather than pinning the run's memory.  Oldest entries are evicted at
// capacity — /sessions is a live-state window, not an audit log.
class SessionDirectory {
 public:
  explicit SessionDirectory(size_t capacity = 256);

  // Registers a session with the limits it will actually run under (the
  // caller knows whether pool defaults or an override apply); returns the
  // session's pool-wide id (StreamSession::id() — /sessions, /flight and
  // the slow-query log all report the same identifier).
  int64_t Register(const std::shared_ptr<StreamSession>& session,
                   const EngineLimits& limits);

  size_t size() const;

  // {"sessions":[{...}, ...]} — newest first.  Limits headroom is reported
  // for each configured limit as remaining = limit - used.
  std::string ToJson() const;

 private:
  struct Entry {
    int64_t id = 0;
    std::string query;
    int worker = 0;
    EngineLimits limits;
    int64_t opened_wall_ms = 0;
    std::weak_ptr<StreamSession> session;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // guarded by mu_
};

struct AdminOptions {
  obs::HttpServerOptions http;
  // Sampler cadence/history backing /stats.
  int sampler_interval_ms = 1000;
  size_t sampler_ring_capacity = 128;
  size_t directory_capacity = 256;
  // Per-query observability registry backing /queries and /flight.  When
  // null the server owns a private one; either way Start() installs it on
  // the pool and Stop() detaches it.  A caller-supplied registry lets the
  // serving tier share one registry between the admin plane and its own
  // slow-query thresholds (spexserve does).
  QueryRegistry* queries = nullptr;
};

class AdminServer {
 public:
  // Longest /trace / /profile capture window; larger requests are clamped.
  static constexpr int64_t kMaxCaptureMs = 10000;

  // Registers the admin plane's own meters (spex_admin_requests) on the
  // pool registry — construct before the registry is scraped from other
  // threads, like every other registration.
  AdminServer(EnginePool* pool, AdminOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Installs the query registry on the pool (unless it has one), starts the
  // sampler and the HTTP listener.  False (with *error filled) on socket
  // failure.
  bool Start(std::string* error = nullptr);
  void Stop();

  uint16_t port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  SessionDirectory& directory() { return directory_; }
  CaptureHub& capture() { return pool_->capture(); }
  obs::TelemetrySampler& sampler() { return sampler_; }
  // The registry /queries and /flight serve from (the caller-supplied one,
  // or the server's own fallback).
  QueryRegistry& queries() { return *queries_; }

  // The endpoint dispatcher (exposed for unit tests; normally invoked by
  // the HTTP server's accept thread).
  obs::HttpResponse Handle(const obs::HttpRequest& request);

 private:
  EnginePool* pool_;
  AdminOptions options_;
  SessionDirectory directory_;
  obs::TelemetrySampler sampler_;
  // Fallback registry when AdminOptions::queries is null; queries_ points
  // at whichever one is live.
  QueryRegistry own_queries_;
  QueryRegistry* queries_ = nullptr;
  std::chrono::steady_clock::time_point start_time_;
  obs::HttpServer http_;
  bool started_ = false;
};

}  // namespace spex

#endif  // SPEX_RUNTIME_ADMIN_SERVER_H_
