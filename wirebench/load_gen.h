// The closed-loop load generator: one thread, two connections, each
// sending its next document only after the previous one's terminal frame,
// writing STREAM bytes and reading RESULT frames in the same poll loop.

#ifndef WIREBENCH_LOAD_GEN_H_
#define WIREBENCH_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.h"
#include "corpus.h"
#include "server_process.h"

namespace wirebench {

inline constexpr size_t kChunkBytes = 64 * 1024;
inline constexpr int kConnections = 2;
inline constexpr int kServerThreads = 2;
// Set-up runs kSetups times, each on a fresh process and each with
// kWarmupDocs documents per connection; setup_s is the median and the last
// set-up serves the window.
inline constexpr int kSetups = 5;
inline constexpr int kWarmupDocs = 2;
// Upper end of the uniform think time between a document's terminal frame
// and the connection's next document in the window: one server poll tick.
inline constexpr double kThinkMs = 15;

// spexserve's flags: --port=0 --threads=2, and --admin-port=0 when traced.
std::vector<std::string> ServerArgs(bool admin);

struct WireOptions {
  std::string server_binary;
  bool admin = false;  // traced run: scrape /metrics.json at the window edges
  double window_s = 10;
  uint64_t seed = 1;  // think times
};

struct WireResult {
  std::string fatal;  // non-empty: the run could not complete
  std::vector<double> setup_s;
  double t0 = 0;
  double t1 = 0;
  std::vector<DocRecord> docs;  // warm-up and window documents
  std::vector<std::string> failures;  // first few failure reasons

  // Over documents attempted in the window.
  int64_t frames_in = 0;
  int64_t bytes_in = 0;
  int64_t result_frames = 0;
  int64_t results_before_end = 0;

  // Over [t0, t1].
  double server_cpu_ms = 0;
  double generator_cpu_ms = 0;
  std::vector<ThreadCpu> thread_cpu;  // per-thread delta, sorted by tid
  double peak_rss_mb = 0;
  std::string metrics_t0;  // /metrics.json bodies (admin runs only)
  std::string metrics_t1;
};

WireResult RunWire(const Corpus& corpus, const WireOptions& options);

}  // namespace wirebench

#endif  // WIREBENCH_LOAD_GEN_H_
