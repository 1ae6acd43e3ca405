// The traced replay: every corpus document once more, in-process, through
// each layer's public functions in the order the server runs them
// (decode, parse, Feed, eval, encode), plus the DOM baseline.  Each call is
// one span under a parent `doc` span; spans stay in memory until the end.

#ifndef WIREBENCH_REPLAY_H_
#define WIREBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"

namespace wirebench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int doc = 0;
  int parent = -1;  // index into the span vector, -1 for `doc` spans
};

struct ReplayResult {
  std::string fatal;  // non-empty: a replayed layer disagreed with the oracle
  std::vector<Span> spans;
  // Per-layer metrics by their BENCHMARK.json names (replayed layers only).
  std::map<std::string, double> metrics;
  // Self time (duration minus children) summed per span name, in ms.
  std::map<std::string, double> self_ms;
  // Sum of the per-document CPU-bound layer times the server also pays:
  // decode + parse + feed + instantiate + eval + encode, ms per document.
  double attributed_ms_per_doc = 0;
};

ReplayResult Replay(const Corpus& corpus);

// Chrome trace-event JSON through obs::TraceRecorder, the exporter behind
// the admin plane's /trace; document d's spans are on track d + 1.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace wirebench

#endif  // WIREBENCH_REPLAY_H_
