// wirebench: the repository's end-to-end benchmark (README.md).
//
//   wirebench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//             [--source-id ID] [--trace-out FILE]
//
// Untraced (--trace 0): starts spexserve as a separate process, drives it
// closed loop over loopback, checks every document against the DOM oracle
// and prints the end-to-end metrics.  Traced (--trace 1): the same wire run
// with the admin plane on, then an in-process replay of the corpus through
// each layer; prints the per-layer metrics and writes the spans as Chrome
// trace JSON to --trace-out.  The last stdout line is always the JSON
// result; exit status 1 when any document failed or a guard tripped.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "corpus.h"
#include "load_gen.h"
#include "obs/metrics.h"
#include "replay.h"
#include "xml/simd_scan.h"

namespace wirebench {
namespace {

struct Args {
  std::string server;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--server") {
      a->server = value;
    } else if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--source-id") {
      a->source_id = value;
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->server.empty() && IsWorkload(a->workload) &&
         a->seconds > 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// Sum over every sample named `name` of its histogram buckets (per-worker
// histograms merged), or its value for counters, from /metrics.json.
struct Scraped {
  std::vector<int64_t> buckets;
  int64_t value = 0;
};

Scraped Scrape(const std::string& json, const std::string& name) {
  Scraped out;
  out.buckets.assign(spex::obs::Histogram::kBuckets, 0);
  std::istringstream in(json);
  std::string line;
  const std::string key = "\"name\": \"" + name + "\"";
  while (std::getline(in, line)) {
    if (line.find(key) == std::string::npos) continue;
    const size_t b = line.find("\"buckets\": [");
    if (b == std::string::npos) {
      const size_t v = line.find("\"value\": ");
      if (v != std::string::npos) out.value += std::atoll(line.c_str() + v + 9);
      continue;
    }
    size_t pos = b;
    for (int i = 0; i < spex::obs::Histogram::kBuckets; ++i) {
      pos = line.find("\"count\": ", pos);
      if (pos == std::string::npos) break;
      pos += 9;
      out.buckets[static_cast<size_t>(i)] += std::atoll(line.c_str() + pos);
    }
  }
  return out;
}

// p50 and tail (highest percentile with 10 samples beyond) of the window's
// share of a histogram: the t1 scrape minus the t0 scrape.
std::pair<double, double> HistogramWindow(const std::string& t0,
                                          const std::string& t1,
                                          const std::string& name) {
  const Scraped a = Scrape(t0, name);
  const Scraped b = Scrape(t1, name);
  std::vector<int64_t> delta(b.buckets.size());
  int64_t n = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = b.buckets[i] - a.buckets[i];
    n += delta[i];
  }
  const int64_t max = std::numeric_limits<int64_t>::max();
  auto q = [&](double p) {
    return spex::obs::HistogramQuantileFromBuckets(
        delta.data(), static_cast<int>(delta.size()), n, max, p);
  };
  const double tail_q = n > 10 ? static_cast<double>(n - 10) / n : 1.0;
  return {q(0.5), q(tail_q)};
}

int Run(const Args& args) {
  const Corpus corpus = BuildCorpus(args.workload, args.seed);
  bool guards_ok = true;

  // --- Fingerprint and workload shape ---------------------------------
  std::string server_flags;
  for (const std::string& flag : ServerArgs(args.trace)) {
    server_flags += (server_flags.empty() ? "" : " ") + flag;
  }
  std::printf(
      "fingerprint {\"nproc\": %u, \"cpu_model\": \"%s\", \"scanner\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"source\": \"%s\", "
      "\"server_flags\": \"%s\", \"workload\": \"%s\", \"seed\": %llu}\n",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      spex::scan::BackendName(), WIREBENCH_COMPILER, WIREBENCH_BUILD_TYPE,
      JsonEscape(args.source_id).c_str(), server_flags.c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  double bytes = 0, events = 0, results = 0;
  for (size_t i = 0; i < corpus.docs.size(); ++i) {
    bytes += static_cast<double>(corpus.docs[i].size());
    events += static_cast<double>(corpus.doc_events[i]);
    results += static_cast<double>(corpus.expected[i].count);
  }
  const double ndocs = static_cast<double>(corpus.docs.size());
  std::printf("shape corpus_docs=%zu bytes_per_doc=%.0f events_per_doc=%.0f "
              "results_per_doc=%.1f\n",
              corpus.docs.size(), bytes / ndocs, events / ndocs,
              results / ndocs);
  if (corpus.population) {
    std::printf("shape subscriptions=%zu slots=%d min_slots=%d "
                "shared_degree=%d naive_degree=%d\n",
                corpus.queries.size(), corpus.slots, corpus.min_slots,
                corpus.multi->shared_degree(), corpus.multi->naive_degree());
  }
  if (corpus.slots < corpus.min_slots) {
    std::printf("GUARD population folded to %d slots, below %d\n",
                corpus.slots, corpus.min_slots);
    guards_ok = false;
  }
  if (results == 0) {
    std::printf("GUARD the corpus produces no results\n");
    guards_ok = false;
  }

  // --- Wire run ----------------------------------------------------------
  WireOptions wire;
  wire.server_binary = args.server;
  wire.admin = args.trace;
  wire.window_s = args.seconds;
  wire.seed = args.seed;
  const WireResult w = RunWire(corpus, wire);
  if (!w.fatal.empty()) {
    std::fprintf(stderr, "wirebench: %s\n", w.fatal.c_str());
    return 1;
  }
  const double window_s = w.t1 - w.t0;
  const WindowTotals totals = Account(w.docs, w.t0, w.t1);
  const LatencySummary latency = Summarize(totals.latency_ms);
  const LatencySummary ttfr = Summarize(totals.ttfr_ms);
  for (const std::string& f : w.failures) std::printf("FAILED %s\n", f.c_str());
  std::vector<double> setups = w.setup_s;
  std::sort(setups.begin(), setups.end());
  const double completed =
      static_cast<double>(std::max<int64_t>(1, totals.completed));

  std::map<std::string, double> e2e;
  e2e["docs_per_s"] = static_cast<double>(totals.completed) / window_s;
  e2e["doc_latency_p50_ms"] = latency.p50;
  e2e["doc_latency_tail_ms"] = latency.tail;
  e2e["ttfr_p50_ms"] = ttfr.p50;
  e2e["ttfr_tail_ms"] = ttfr.tail;
  e2e["server_cpu_ms_per_doc"] = w.server_cpu_ms / completed;
  e2e["server_rss_peak_mb"] = w.peak_rss_mb;
  e2e["setup_s"] = setups[setups.size() / 2];
  e2e["correct_doc_frac"] =
      totals.attempted > 0
          ? static_cast<double>(totals.attempted - totals.failed) /
                static_cast<double>(totals.attempted)
          : 0;
  std::printf("window seconds=%.3f attempted=%lld completed=%lld failed=%lld "
              "failed_doc_frac=%.6f\n",
              window_s, static_cast<long long>(totals.attempted),
              static_cast<long long>(totals.completed),
              static_cast<long long>(totals.failed),
              totals.attempted > 0 ? static_cast<double>(totals.failed) /
                                         static_cast<double>(totals.attempted)
                                   : 0.0);
  std::printf("latency samples=%zu tail=p%.2f  ttfr samples=%zu tail=p%.2f\n",
              latency.samples, latency.tail_pct, ttfr.samples, ttfr.tail_pct);
  std::printf("setup_s runs=");
  for (double s : w.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  // Exactly the event loop and the pool workers should burn CPU (the
  // admin plane's threads tick a few ms at most); a busy generator would
  // cap throughput and be reported as the server's.
  int busy_threads = 0;
  for (const ThreadCpu& t : w.thread_cpu) {
    std::printf("thread tid=%d cpu_frac=%.4f\n", t.tid,
                t.cpu_ms / (window_s * 1e3));
    if (t.cpu_ms > std::max(20.0, 0.002 * window_s * 1e3)) ++busy_threads;
  }
  const double generator_frac = w.generator_cpu_ms / (window_s * 1e3);
  std::printf("generator cpu_frac=%.4f busy_server_threads=%d\n",
              generator_frac, busy_threads);
  if (busy_threads != 1 + kServerThreads) {
    std::printf("GUARD %d spexserve threads accumulated CPU, expected %d\n",
                busy_threads, 1 + kServerThreads);
    guards_ok = false;
  }
  if (generator_frac > 0.75) {
    std::printf("GUARD the generator thread was %.0f%% busy\n",
                generator_frac * 100);
    guards_ok = false;
  }
  if (totals.completed < 20) {
    std::printf("GUARD only %lld documents completed in the window\n",
                static_cast<long long>(totals.completed));
    guards_ok = false;
  }

  for (const auto& [name, value] : e2e) {
    std::printf("%s %s%s\n", args.trace ? "traced_e2e" : "metric", name.c_str(),
                (" " + Num(value)).c_str());
  }

  std::map<std::string, double> metrics = e2e;
  std::map<std::string, const char*> units = {
      {"docs_per_s", "1/s"},          {"doc_latency_p50_ms", "ms"},
      {"doc_latency_tail_ms", "ms"},  {"ttfr_p50_ms", "ms"},
      {"ttfr_tail_ms", "ms"},         {"server_cpu_ms_per_doc", "ms"},
      {"server_rss_peak_mb", "MB"},   {"setup_s", "s"},
      {"correct_doc_frac", "ratio"}};

  if (args.trace) {
    // --- Per-layer metrics: wire-side CPU split and admin scrapes ------
    metrics.clear();
    units.clear();
    const double window_ms = window_s * 1e3;
    // Threads in start order (tid order): main, the pool workers, the admin
    // plane's HTTP and sampler threads, and last the event loop.
    const std::vector<ThreadCpu>& th = w.thread_cpu;
    metrics["net.loop_busy_frac"] = th.back().cpu_ms / window_ms;
    metrics["runtime.worker_busy_frac"] =
        th.size() > 2 ? (th[1].cpu_ms + th[2].cpu_ms) / 2 / window_ms : 0;
    const double attempted =
        static_cast<double>(std::max<int64_t>(1, totals.attempted));
    metrics["net.frames_out_per_doc"] =
        static_cast<double>(w.frames_in) / attempted;
    metrics["net.bytes_out_per_doc"] =
        static_cast<double>(w.bytes_in) / attempted;
    metrics["net.results_before_end_frac"] =
        w.result_frames > 0 ? static_cast<double>(w.results_before_end) /
                                  static_cast<double>(w.result_frames)
                            : 0;
    const auto [wait_p50, wait_tail] =
        HistogramWindow(w.metrics_t0, w.metrics_t1, "spex_pool_queue_wait_us");
    metrics["runtime.queue_wait_p50_us"] = wait_p50;
    metrics["runtime.queue_wait_tail_us"] = wait_tail;
    metrics["runtime.backpressure_waits_per_doc"] =
        static_cast<double>(
            Scrape(w.metrics_t1, "spex_pool_backpressure_waits").value -
            Scrape(w.metrics_t0, "spex_pool_backpressure_waits").value) /
        completed;

    // --- Replay ----------------------------------------------------------
    const ReplayResult replay = Replay(corpus);
    if (!replay.fatal.empty()) {
      std::fprintf(stderr, "wirebench: %s\n", replay.fatal.c_str());
      return 1;
    }
    const double loop = metrics["net.loop_busy_frac"];
    const double workers = metrics["runtime.worker_busy_frac"];
    std::printf("bottleneck %s (loop %.2f, workers %.2f busy)\n",
                loop > workers ? "event_loop" : "pool_workers", loop, workers);
    for (const auto& [name, value] : replay.metrics) metrics[name] = value;
    metrics["net.unattributed_ms_per_doc"] =
        e2e["server_cpu_ms_per_doc"] - replay.attributed_ms_per_doc;
    for (const auto& [name, ms] : replay.self_ms) {
      std::printf("self_time %s %.3f ms/doc\n", name.c_str(), ms / ndocs);
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << ChromeTraceJson(replay.spans);
      std::printf("trace %zu spans written to %s\n", replay.spans.size(),
                  args.trace_out.c_str());
    }
    for (const auto& [name, value] : metrics) {
      const std::string n = name;
      const bool ms = n.ends_with("_ms") || n.ends_with("_ms_per_doc");
      const char* unit =
          n.ends_with("_frac") || n == "baseline.spex_over_dom" ? "ratio"
          : ms                                                  ? "ms"
          : n.ends_with("_us")                                  ? "us"
          : n == "spex.ns_per_delivery"                         ? "ns"
          : n == "xml.parse_mb_per_s"                           ? "MB/s"
          : n.find("bytes") != std::string::npos                ? "bytes"
                                                                : "count";
      units[name] = unit;
      std::printf("metric %s %s %s\n", name.c_str(), Num(value).c_str(), unit);
    }
  }

  const bool correct = totals.failed == 0 && totals.attempted > 0 && guards_ok;
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(totals.attempted) +
                     ", \"failed\": " + std::to_string(totals.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + Num(value) + ", \"unit\": \"" + units[name] +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  wirebench::Args args;
  if (!wirebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --server PATH --workload "
                 "wire_qualifier|wire_records|wire_subscriptions --seed N "
                 "--seconds S --trace 0|1 [--source-id ID] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return wirebench::Run(args);
}
