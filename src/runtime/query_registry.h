// Per-query observability registry (DESIGN.md §13).
//
// The pool's metrics answer "how is the *process* doing"; this registry
// answers "which *query* is doing it".  Every streaming session that
// finishes (sealed, truncated or quarantined) folds one QueryRunRecord into
// the entry for its query, keyed on the exact canonical text
// CompiledQueryCache keys on — so a query's identity survives cache
// eviction, re-compilation and arbitrary interleavings across workers, and
// two spellings that canonicalise identically share one id, one cache slot
// and one attribution row.
//
// Per entry (RED + attribution):
//   * Rate / Errors:  runs, errors by failure class, governor breaches,
//     truncated (partial-result) runs.
//   * Duration:       feed-to-result latency histogram; OU decision-delay
//     histogram merged from the per-run registries (bucket-wise — base-2
//     buckets merge losslessly).
//   * Volume:         events fed, results emitted, peak buffered events.
//   * Attribution:    per-node self-times folded from the sampling profiler
//     (obs/sampling_profiler.h), so `/queries` can put the observed time
//     share next to the §V predicted cost class continuously, not just when
//     someone runs --profile.
//
// The registry is also where the slow-query log and the flight recorder
// terminate: RecordRun applies the (runtime-mutable) thresholds and emits
// at most one `msg="slow query"` record per run, and stores the frozen
// flight-ring JSON of failed runs for the `/flight` endpoint.  Failed runs
// are *always* slow-query-logged and always dump their flight ring — a
// quarantine with no diagnosis trail would defeat the point.
//
// Threading: Intern/RecordRun are called by pool workers under one mutex;
// renderers snapshot under the same mutex.  Log emission happens *outside*
// the lock (the logger has its own mutex; a slow sink must not stall
// unrelated workers).  Entries are bounded: beyond `capacity` the
// least-recently-run query is evicted and its id retires with it (a later
// Intern of the same text gets a fresh id — ids are stable for live
// entries, not across eviction; the text is the durable key).

#ifndef SPEX_RUNTIME_QUERY_REGISTRY_H_
#define SPEX_RUNTIME_QUERY_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "obs/metrics.h"
#include "spex/transducer.h"

namespace spex {

// One sampled hot node: a network node's identity plus the self-time the
// sampling profiler attributed to it during one run.
struct QueryHotNode {
  std::string name;        // transducer notation, e.g. "CH(book)"
  std::string fragment;    // query sub-expression (provenance)
  std::string cost_class;  // predicted §V cost class
  int64_t deliveries = 0;
  int64_t self_ns = 0;
};

// Everything one finished session reports about itself.  Built by the pool
// worker during session teardown, consumed by QueryRegistry::RecordRun.
struct QueryRunRecord {
  std::string canonical_text;  // CompiledQueryCache key
  int64_t session_id = 0;
  int worker = -1;
  StatusCode code = StatusCode::kOk;
  bool truncated = false;  // sealed as a partial result (governor)
  int64_t events = 0;
  int64_t results = 0;
  int64_t feed_to_result_us = 0;  // first feed -> session finished
  int64_t buffered_events_peak = 0;
  EngineLimits limits;  // effective limits (for headroom reporting)
  // OU decision-delay histogram of this run (base-2 buckets, possibly
  // trimmed), copied from the run's always-on histogram; empty when the
  // run never built an engine.
  std::vector<int64_t> delay_buckets;
  int64_t delay_count = 0;
  int64_t delay_sum = 0;
  int64_t delay_max = 0;
  // Sampled attribution: per-node self-times from the batches this run's
  // engine sampled (empty when none were drawn).
  std::vector<QueryHotNode> sampled_nodes;
  int64_t sampled_batches = 0;
  // Frozen flight-ring JSON (failed runs only; empty otherwise).
  std::string flight_json;
};

class QueryRegistry {
 public:
  struct Options {
    // Live entries kept; least-recently-run beyond this is evicted.
    size_t capacity = 1024;
    // Frozen flight dumps retained (FIFO beyond this).
    size_t flight_capacity = 64;
    // Slow-query thresholds; 0 disables that trigger.  Runtime-mutable
    // (set_slow_ms / set_slow_delay_ms — the admin plane flips them).
    int64_t slow_ms = 0;
    int64_t slow_delay_ms = 0;
  };

  enum class Sort { kTime, kEvents, kDelay };
  // "time" | "events" | "delay" (false on anything else).
  static bool ParseSort(std::string_view text, Sort* out);

  QueryRegistry();
  explicit QueryRegistry(Options options);
  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  // Stable id for `canonical_text`, creating the entry if new.  Sessions
  // call this at open so /queries lists a query from its first run, even
  // before any run finished.
  int64_t Intern(const std::string& canonical_text);

  // Fold one finished run in; applies slow-query thresholds (emitting at
  // most one structured record via obs::Logger::Global()) and captures the
  // flight dump of failed runs.
  void RecordRun(const QueryRunRecord& record);

  int64_t slow_ms() const { return slow_ms_.load(std::memory_order_relaxed); }
  int64_t slow_delay_ms() const {
    return slow_delay_ms_.load(std::memory_order_relaxed);
  }
  void set_slow_ms(int64_t ms) {
    slow_ms_.store(ms, std::memory_order_relaxed);
  }
  void set_slow_delay_ms(int64_t ms) {
    slow_delay_ms_.store(ms, std::memory_order_relaxed);
  }

  size_t size() const;
  int64_t slow_queries() const {
    return slow_queries_.load(std::memory_order_relaxed);
  }
  int64_t flight_dumps() const {
    return flight_dumps_.load(std::memory_order_relaxed);
  }

  // Top-k table, "QUERIES" header; k <= 0 means all.
  std::string ToText(Sort sort = Sort::kTime, int k = 0) const;
  // {"queries": [{"id": ..., "query": ..., ...}]} sorted as requested.
  std::string ToJson(Sort sort = Sort::kTime, int k = 0) const;
  // spex_query_* families in Prometheus text exposition format, appended to
  // the pool registry's own /metrics output.  Rendered directly (not via
  // MetricRegistry) because the per-query label sets come and go with
  // entries, and MetricRegistry registration is fixed up front by design.
  std::string PrometheusText() const;
  // {"flights": [...]} — retained flight dumps, newest first; session >= 0
  // filters to that session.
  std::string FlightJson(int64_t session = -1) const;

 private:
  struct HotNodeAgg {
    std::string cost_class;
    int64_t deliveries = 0;
    int64_t self_ns = 0;
  };

  struct Entry {
    int64_t id = 0;
    std::string text;
    // RED
    int64_t runs = 0;
    int64_t errors = 0;    // failed runs (non-ok, non-governor)
    int64_t breaches = 0;  // governor: resource_exhausted / deadline
    int64_t truncated = 0;
    int64_t errors_by_code[kStatusCodeCount] = {};
    // Volume
    int64_t events = 0;
    int64_t results = 0;
    int64_t buffered_events_peak = 0;
    // Duration
    obs::Histogram feed_us;
    int64_t delay_buckets[obs::Histogram::kBuckets] = {};
    int64_t delay_count = 0;
    int64_t delay_sum = 0;
    int64_t delay_max = 0;
    // Attribution (bounded map: name + "\0" + fragment -> agg)
    std::unordered_map<std::string, HotNodeAgg> hot;
    int64_t sampled_batches = 0;
    int64_t sampled_self_ns = 0;
    // Bookkeeping
    int64_t last_run_seq = 0;
    StatusCode last_code = StatusCode::kOk;
    std::list<std::string>::iterator lru;  // position in lru_ (key: text)
  };

  struct FlightDump {
    int64_t session_id = 0;
    int64_t query_id = 0;
    std::string reason;
    std::string json;
  };

  struct Row;  // snapshot row used by the renderers

  // All take mu_.
  Entry* InternLocked(const std::string& text);
  void EvictIfNeededLocked();
  std::vector<Row> SnapshotLocked(Sort sort, int k) const;

  const Options options_;
  std::atomic<int64_t> slow_ms_;
  std::atomic<int64_t> slow_delay_ms_;
  std::atomic<int64_t> slow_queries_{0};
  std::atomic<int64_t> flight_dumps_{0};

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;  // key: canonical text
  std::list<std::string> lru_;                      // front = most recent
  std::vector<FlightDump> flights_;                 // newest last
  int64_t next_id_ = 1;
  int64_t run_seq_ = 0;
};

}  // namespace spex

#endif  // SPEX_RUNTIME_QUERY_REGISTRY_H_
