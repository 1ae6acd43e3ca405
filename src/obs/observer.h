// Hot-path handle bundle connecting a run to its observability subsystem.
//
// A RunObserver is the *only* thing the engine's per-message code touches:
// when observation is off the engine holds a null pointer and pays exactly
// one branch per document message; when it is on, the pointed-to struct
// carries the pre-registered instrument handles so publishing is a direct
// increment — no name lookups on the hot path, ever.
//
// Ownership: the engine core (spex/run_core.h) owns the observer and stores
// a pointer in RunContext so downstream components (the output transducer)
// can publish without knowing about the engine.

#ifndef SPEX_OBS_OBSERVER_H_
#define SPEX_OBS_OBSERVER_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spex {
namespace obs {

struct RunObserver {
  // Document messages fed to the network (observe >= counters).
  Counter* events_total = nullptr;
  // Events between a result candidate's creation and the determination of
  // its formula — the output buffering delay of §V (observe >= counters).
  Histogram* output_decision_delay = nullptr;
  // Wall time of one full delivery round, nanoseconds (observe = full).
  Histogram* event_latency_ns = nullptr;
  // Span/counter recorder (observe = full), null otherwise.
  TraceRecorder* trace = nullptr;
  // Interned trace name for the output-buffer occupancy counter track.
  int trace_buffered_name = -1;
  // Index of the document message currently in the network; stamped by the
  // engine before delivery so downstream publishers can compute delays.
  int64_t event_index = 0;
};

}  // namespace obs
}  // namespace spex

#endif  // SPEX_OBS_OBSERVER_H_
