// Observability glue between the SPEX engines and src/obs: observe levels,
// progress watermarks, the per-run push-metric bundle and the pull-collector
// registration helpers.
//
// Cost contract (validated by BENCH_PR2.json):
//  * ObserveLevel::kOff      — the engine's per-event path pays exactly one
//    branch (a null observer check); nothing is registered or published.
//  * ObserveLevel::kCounters — per-event counter increments and the output
//    decision-delay histogram; no clock reads, no allocation.
//  * ObserveLevel::kFull     — additionally one document message per sweep
//    and two clock reads per sweep and per node call of the sweep, for the
//    latency histogram and Chrome-trace spans.
//
// The pull collectors (Register*Collectors) expose state the components
// maintain unconditionally anyway (TransducerStats, OutputStats, the formula
// pool); they are evaluated only when the registry is scraped and are
// registered at every level.

#ifndef SPEX_SPEX_OBSERVE_H_
#define SPEX_SPEX_OBSERVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "xml/stream_event.h"

namespace spex {

class Network;
class OutputTransducer;
struct RunContext;

// How much the run publishes into RunContext::metrics (see the cost
// contract above).
enum class ObserveLevel : uint8_t { kOff, kCounters, kFull };

// Parses "off" / "counters" / "full"; returns false on anything else.
bool ParseObserveLevel(std::string_view text, ObserveLevel* out);

// A progress report, published through ProgressOptions::callback every N
// events / M bytes and available on demand via RunCore::CurrentWatermark.
// This is the live view of the §V resource bounds: everything here is O(1)
// to read and stays flat on streams of bounded depth.
struct Watermark {
  int64_t events = 0;          // document messages fed so far
  int64_t bytes = 0;           // parser bytes consumed (0 if no byte source)
  double elapsed_sec = 0;      // wall time since the first event
  double events_per_sec = 0;   // throughput since the previous watermark
  int64_t results = 0;         // result fragments fully emitted
  int64_t pending_fragments = 0;   // result candidates not yet decided+done
  int64_t buffered_events = 0;     // events buffered in undecided candidates
  int64_t buffered_events_peak = 0;  // high-water of the above
  int64_t live_formula_nodes = 0;  // formula pool occupancy (memory proxy)
  int64_t live_condition_vars = 0;  // bindings in the global assignment

  // One line, e.g. "events=200000 bytes=1528000 elapsed=0.13s
  // rate=1538462ev/s results=7 pending_fragments=0 buffered_events=0
  // buffered_peak=12 formula_nodes=1 live_vars=0".  spexquery --progress and
  // examples/stream_monitor both print exactly this.
  std::string ToString() const;
};

// Watermark publication config (EngineOptions::progress).
struct ProgressOptions {
  // Publish every N document messages (0 = never by event count).
  int64_t every_events = 0;
  // Publish every M stream bytes; needs a byte source (0 = never by bytes).
  int64_t every_bytes = 0;
  std::function<void(const Watermark&)> callback;

  bool enabled() const {
    return callback != nullptr && (every_events > 0 || every_bytes > 0);
  }
};

// Owns the push-metric handles and the optional trace recorder of one run.
// Constructed by the engines only when observe != kOff; RunContext::observer
// points at the embedded RunObserver for downstream publishers.
class EngineObservability {
 public:
  // Registers the push metrics into context->metrics according to
  // context->options.observe and, at kFull, attaches a TraceRecorder of
  // `trace_capacity` spans to `network` (tid 0 = stream, tid i+1 = node i).
  EngineObservability(RunContext* context, Network* network,
                      size_t trace_capacity);
  ~EngineObservability();

  EngineObservability(const EngineObservability&) = delete;
  EngineObservability& operator=(const EngineObservability&) = delete;

  obs::TraceRecorder* trace_recorder() { return trace_.get(); }
  const obs::TraceRecorder* trace_recorder() const { return trace_.get(); }

  // Publishes the per-event metrics around one sweep of `count` document
  // messages (DESIGN.md §11), the last of which is the run's
  // `event_index`-th; `deliver` performs the sweep.  Increment(count) keeps
  // spex_events_total exact at any sweep size.  The observer's event index
  // (decision delay) advances per sweep, so it is exact wherever sweeps are
  // one round and quantized to batch boundaries elsewhere.  At kFull the
  // engine sweeps one message at a time, and each sweep gets a stream-track
  // span named after its event `kind` plus a latency observation.
  template <typename Fn>
  void ObserveSweep(EventKind kind, int64_t event_index, int64_t count,
                    Fn&& deliver) {
    observer_.event_index = event_index;
    observer_.events_total->Increment(count);
    if (trace_ == nullptr) {
      deliver();
      return;
    }
    const int64_t start = trace_->NowNs();
    deliver();
    const int64_t end = trace_->NowNs();
    trace_->RecordSpan(/*tid=*/0, event_name_ids_[static_cast<int>(kind)],
                       start, end);
    observer_.event_latency_ns->Observe(end - start);
  }

 private:
  RunContext* context_;
  obs::RunObserver observer_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  int event_name_ids_[5] = {};
};

// Pull collectors: callback gauges over state the components already
// maintain.  All of them capture raw pointers — the pointees must outlive
// the registry scrapes (true for the engines, which own registry and
// network with matching lifetimes).

// Per-transducer TransducerStats (messages in/out, stack and formula peaks,
// labelled {node,transducer}) plus the network degree.
void RegisterNetworkCollectors(obs::MetricRegistry* registry,
                               Network* network);
// OutputStats + live buffer occupancy of one output transducer.  `labels`
// distinguishes outputs in a multi-query network (e.g. {{"query","2"}}).
void RegisterOutputCollectors(obs::MetricRegistry* registry,
                              OutputTransducer* output, obs::Labels labels);
// Run-wide state: assignment size and the formula pool (live nodes, pool
// high-water, allocation churn since registration).
void RegisterContextCollectors(obs::MetricRegistry* registry,
                               RunContext* context);

// Predicted §V cost class of a transducer, from its notation name (e.g.
// "CH(a)" -> per-message constant with an O(d) depth stack).  Static — the
// EXPLAIN column; actual peaks come from TransducerStats.
std::string PredictCostClass(std::string_view transducer_name);

// Builds the EXPLAIN/PROFILE attribution report (see obs/profile.h): one
// row per node folding TransducerStats, the compiler's query provenance and
// — when `profiler` is non-null — the accumulated self times; one
// edge per wired tape with its message volume (derived as the producer's
// messages_out split over its wired ports, so no hot-path tape counters are
// needed).  A null `profiler` yields a static EXPLAIN (timed=false).
obs::ProfileReport BuildProfileReport(const Network& network,
                                      std::string query, int64_t events,
                                      const obs::ProfileAccumulator* profiler,
                                      int64_t formula_pool_high_water,
                                      int64_t formula_pool_allocs);

}  // namespace spex

#endif  // SPEX_SPEX_OBSERVE_H_
