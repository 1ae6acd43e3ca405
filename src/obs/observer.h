// Hot-path handle bundle connecting a run to its observability subsystem.
//
// A RunObserver is the *only* thing the engine's per-message code touches:
// it carries the pre-registered instrument handles so publishing is a
// direct update — no name lookups on the hot path, ever.  Counters are
// always on; a trace recorder is present only while one is attached.
//
// Ownership: the run context (spex/transducer.h) embeds the observer, so
// downstream components (the output transducer) can publish without
// knowing about the engine; the run core (spex/run_core.h) fills it in.

#ifndef SPEX_OBS_OBSERVER_H_
#define SPEX_OBS_OBSERVER_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spex {
namespace obs {

struct RunObserver {
  // Events between a result candidate's creation and the determination of
  // its formula — the output buffering delay of §V.  Registered when the
  // run starts; null only for a context no run core started (unit tests).
  Histogram* output_decision_delay = nullptr;
  // Attached span/counter recorder, null otherwise.
  TraceRecorder* trace = nullptr;
  // Interned trace name for the output-buffer occupancy counter track.
  int trace_buffered_name = -1;
};

}  // namespace obs
}  // namespace spex

#endif  // SPEX_OBS_OBSERVER_H_
