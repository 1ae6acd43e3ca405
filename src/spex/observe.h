// Observability glue between the SPEX engines and src/obs: progress
// watermarks, the pull-collector registration helpers and the
// EXPLAIN/PROFILE report builder.
//
// Cost contract (DESIGN.md §7): observation is attached to a live run, never
// a mode it is built in.
//  * Counters are always on: the run's event count (a pull counter) and the
//    output decision-delay histogram, fed from each OU's own round counter
//    — no clock reads, no allocation.
//  * A trace recorder (RunCore::AttachTrace) or profile accumulator
//    (RunCore::AttachProfiler) adds two clock reads per sweep and per node
//    call of the sweep while attached; either attaches and detaches between
//    any two batches and never changes how events are delivered.
//
// The pull collectors (Register*Collectors) expose state the components
// maintain unconditionally anyway (TransducerStats, OutputStats, the formula
// pool); the run core registers them on the first RunCore::metrics() call,
// and they are evaluated only when the registry is scraped.

#ifndef SPEX_SPEX_OBSERVE_H_
#define SPEX_SPEX_OBSERVE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace spex {

class Network;
class OutputTransducer;
struct RunContext;

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
// high-water, allocations since the pool's allocated_total was
// `allocs_baseline`).
void RegisterContextCollectors(obs::MetricRegistry* registry,
                               RunContext* context, int64_t allocs_baseline);

// Predicted §V cost class of a transducer, from its notation name (e.g.
// "CH(a)" -> per-document constant with an O(d) depth stack, "SP" -> per
// control message, documents free).  Static — the EXPLAIN column; actual
// peaks come from TransducerStats.
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
