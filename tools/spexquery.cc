// spexquery — command-line streaming query processor.
//
//   spexquery QUERY [FILE]            evaluate an rpeq over FILE (or stdin)
//   spexquery --xpath QUERY [FILE]    the query is XPath instead of rpeq
//   spexquery --count ...             print only the number of results
//   spexquery --stats ...             print run statistics to stderr
//   spexquery --order=det ...         determination-order output (constant
//                                     memory on nested results)
//   spexquery --network ...           print the compiled network and exit
//   spexquery --dot ...               print the network as Graphviz DOT
//   spexquery --explain ...           print the static plan (one row per
//                                     transducer: query provenance span and
//                                     predicted cost class) and exit
//   spexquery --profile[=text|json|dot] ...
//                                     run the stream with the per-node cost
//                                     profiler and print the attribution
//                                     report (dot = heat-annotated network;
//                                     result fragments are suppressed, use
//                                     --count for the match count)
//   spexquery --sampling=N ...        statistical sampling profiler: ~1/N
//                                     delivery batches have their sweeps
//                                     timed; prints the sampled attribution
//                                     report after the run (cheap alternative
//                                     to --profile for long streams)
//   spexquery --metrics=json|prom ... dump the metrics registry to stderr
//                                     after the run
//   spexquery --trace-out=FILE ...    attach a trace recorder and write a
//                                     Chrome trace-event JSON of the run;
//                                     load in chrome://tracing or Perfetto
//   spexquery --progress[=N] ...      print a progress watermark to stderr
//                                     every N events (default 100000)
//   spexquery --max-depth=N ...       parser element-depth bound
//                                     (default 10000, 0 = unlimited)
//   spexquery --max-text=BYTES ...    parser token-size bound (text node /
//                                     tag name / attribute region; default
//                                     16 MiB, 0 = unlimited)
//
// Examples:
//   spexquery '_*.book[author].title' catalog.xml
//   spexquery --xpath '//country[province]/name' mondial.xml
//   generator | spexquery --count 'feed.tick[alert].price'
//   spexquery --count --metrics=prom --trace-out=run.json Q huge.xml

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/log.h"
#include "obs/sampling_profiler.h"
#include "spex/spex.h"

namespace {

using spex::obs::LogError;
using spex::obs::LogInfo;

struct Options {
  std::string query;
  std::string file;  // empty = stdin
  bool xpath = false;
  bool count_only = false;
  bool stats = false;
  bool show_network = false;
  bool dot = false;
  bool explain = false;
  std::string profile_format;  // "", "text", "json" or "dot"
  spex::OutputOrder order = spex::OutputOrder::kDocumentStart;
  std::string metrics_format;      // "", "json" or "prom"
  std::string trace_out;           // empty = no trace
  int64_t progress_every = 0;      // 0 = no progress reports
  // Parser bounds (0 = unlimited); defaults absorb adversarial inputs
  // without bothering legitimate documents.
  int max_depth = 10000;
  size_t max_text_bytes = 16u << 20;
  // Events per delivery batch through parser and engine (DESIGN.md §11);
  // 1 = legacy per-event delivery.
  int batch_size = 64;
  // Sampling-profiler period: ~1/N batches instrumented (0 = off).
  int sampling_period = 0;
};

int Usage() {
  std::fprintf(stderr,
               "usage: spexquery [--xpath] [--count] [--stats] "
               "[--order=doc|det]\n"
               "                 [--network] [--dot] [--explain] "
               "[--profile[=text|json|dot]]\n"
               "                 [--metrics=json|prom] [--trace-out=FILE] "
               "[--progress[=N]]\n"
               "                 [--max-depth=N] [--max-text=BYTES] "
               "[--batch-size=N]\n"
               "                 [--sampling=N] QUERY [FILE]\n");
  return 2;
}

// Streams each result fragment to stdout as soon as it is complete.
class PrintingSink : public spex::ResultSink {
 public:
  void OnResultBegin(int64_t id) override { collector_.OnResultBegin(id); }
  void OnResultEvent(const spex::StreamEvent& e) override {
    collector_.OnResultEvent(e);
  }
  void OnReplayedResultEvent(int64_t id,
                             const spex::StreamEvent& e) override {
    collector_.OnReplayedResultEvent(id, e);
  }
  void OnResultEnd(int64_t id) override {
    collector_.OnResultEnd(id);
    // Fragments are final once their bracket closes; print new ones.
    while (printed_ < collector_.results().size()) {
      // Only print fragments that are complete (closed); under interleaved
      // emission a later-closing outer fragment may still be open.
      // SerializingResultSink fills results() in Begin order, so wait until
      // the next unprinted one is non-empty.
      if (collector_.results()[printed_].empty()) break;
      std::fputs(collector_.results()[printed_].c_str(), stdout);
      std::fputc('\n', stdout);
      ++printed_;
    }
  }
  size_t printed() const { return printed_; }
  const std::vector<std::string>& all() const { return collector_.results(); }

 private:
  spex::SerializingResultSink collector_;
  size_t printed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--xpath") {
      opts.xpath = true;
    } else if (arg == "--count") {
      opts.count_only = true;
    } else if (arg == "--stats") {
      opts.stats = true;
    } else if (arg == "--network") {
      opts.show_network = true;
    } else if (arg == "--dot") {
      opts.dot = true;
    } else if (arg == "--explain") {
      opts.explain = true;
    } else if (arg == "--profile") {
      opts.profile_format = "text";
    } else if (arg.rfind("--profile=", 0) == 0) {
      opts.profile_format = arg.substr(10);
      if (opts.profile_format != "text" && opts.profile_format != "json" &&
          opts.profile_format != "dot") {
        LogError("bad profile format", {{"arg", arg}});
        return Usage();
      }
    } else if (arg == "--order=det") {
      opts.order = spex::OutputOrder::kDetermination;
    } else if (arg == "--order=doc") {
      opts.order = spex::OutputOrder::kDocumentStart;
    } else if (arg == "--metrics=json" || arg == "--metrics=prom") {
      opts.metrics_format = arg.substr(10);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opts.trace_out = arg.substr(12);
      if (opts.trace_out.empty()) return Usage();
    } else if (arg == "--progress") {
      opts.progress_every = 100000;
    } else if (arg.rfind("--progress=", 0) == 0) {
      opts.progress_every = std::atoll(arg.c_str() + 11);
      if (opts.progress_every <= 0) return Usage();
    } else if (arg.rfind("--max-depth=", 0) == 0) {
      opts.max_depth = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--max-text=", 0) == 0) {
      opts.max_text_bytes = static_cast<size_t>(std::atoll(arg.c_str() + 11));
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      opts.batch_size = std::atoi(arg.c_str() + 13);
      if (opts.batch_size < 1) return Usage();
    } else if (arg.rfind("--sampling=", 0) == 0) {
      opts.sampling_period = std::atoi(arg.c_str() + 11);
      if (opts.sampling_period < 0) return Usage();
    } else if (arg.rfind("--", 0) == 0) {
      LogError("unknown option", {{"arg", arg}});
      return Usage();
    } else if (opts.query.empty()) {
      opts.query = arg;
    } else if (opts.file.empty()) {
      opts.file = arg;
    } else {
      return Usage();
    }
  }
  if (opts.query.empty()) return Usage();

  // Parse the query.
  spex::ParseResult parsed = opts.xpath ? spex::ParseXPath(opts.query)
                                        : spex::ParseRpeq(opts.query);
  if (!parsed.ok()) {
    LogError("query parse error",
             {{"offset", static_cast<long long>(parsed.error_position)},
              {"error", parsed.error}});
    return 1;
  }
  std::string validation_error;
  if (!spex::ValidateQuery(*parsed.expr, &validation_error)) {
    LogError("query validation error", {{"error", validation_error}});
    return 1;
  }

  spex::EngineOptions engine_options;
  engine_options.output_order = opts.order;
  engine_options.batch_size = opts.batch_size;
  if (opts.progress_every > 0) {
    engine_options.progress.every_events = opts.progress_every;
    engine_options.progress.callback = [](const spex::Watermark& w) {
      LogInfo("progress", {{"watermark", w.ToString()}});
    };
  }

  if (opts.explain) {
    // Static plan: compile but do not run; the report carries provenance,
    // predicted cost classes and the network wiring, no timings.
    spex::CountingResultSink sink;
    spex::SpexEngine engine(*parsed.expr, &sink, engine_options);
    spex::obs::ProfileReport report = engine.Profile();
    report.query = opts.query;  // spans index the text as typed
    std::fputs(report.ToExplainText().c_str(), stdout);
    return 0;
  }

  if (opts.show_network || opts.dot) {
    spex::CountingResultSink sink;
    spex::SpexEngine engine(*parsed.expr, &sink, engine_options);
    if (opts.dot) {
      std::fputs(engine.network().ToDot().c_str(), stdout);
    } else {
      std::printf("query: %s\nnetwork (%d transducers):\n%s",
                  parsed.expr->ToString().c_str(),
                  engine.network().node_count(),
                  engine.network().Describe().c_str());
    }
    return 0;
  }

  // Evaluate, streaming the document through the engine.  A profile report
  // owns stdout (json/dot must stay machine-parseable), so fragments are
  // counted rather than printed.
  const bool suppress_results = !opts.profile_format.empty();
  spex::CountingResultSink counter;
  PrintingSink printer;
  spex::ResultSink* sink =
      opts.count_only || suppress_results
          ? static_cast<spex::ResultSink*>(&counter)
          : static_cast<spex::ResultSink*>(&printer);
  spex::SpexEngine engine(*parsed.expr, sink, engine_options);
  spex::obs::SamplingProfiler sampler(
      spex::obs::SamplingProfiler::Options{opts.sampling_period});
  if (opts.sampling_period > 0) engine.SetBatchSampler(&sampler);
  // Observation attaches to the run: a recorder for --trace-out, a per-node
  // accumulator for --profile; the counters are always on.
  std::unique_ptr<spex::obs::TraceRecorder> recorder;
  if (!opts.trace_out.empty()) {
    recorder = std::make_unique<spex::obs::TraceRecorder>();
    engine.AttachTrace(recorder.get());
  }
  spex::obs::ProfileAccumulator profiler(engine.network().node_count());
  if (!opts.profile_format.empty()) engine.AttachProfiler(&profiler);
  spex::XmlParserOptions parser_options;
  parser_options.symbols = engine.symbol_table();
  if (!opts.metrics_format.empty()) parser_options.metrics = &engine.metrics();
  parser_options.max_depth = opts.max_depth;
  parser_options.max_text_bytes = opts.max_text_bytes;
  parser_options.event_batch_size = opts.batch_size;
  spex::XmlParser parser(&engine, parser_options);
  engine.set_progress_bytes_source([&parser] { return parser.bytes_consumed(); });

  bool ok = true;
  if (opts.file.empty()) {
    std::string chunk(1 << 16, '\0');
    while (ok && std::cin.read(chunk.data(), chunk.size()),
           std::cin.gcount() > 0) {
      ok = parser.Feed(std::string_view(
          chunk.data(), static_cast<size_t>(std::cin.gcount())));
      if (!ok) break;
    }
    if (ok) ok = parser.Finish();
  } else {
    std::ifstream in(opts.file, std::ios::binary);
    if (!in) {
      LogError("cannot open input file", {{"file", opts.file}});
      return 1;
    }
    std::string chunk(1 << 16, '\0');
    while (ok && in.read(chunk.data(), chunk.size()), in.gcount() > 0) {
      ok = parser.Feed(
          std::string_view(chunk.data(), static_cast<size_t>(in.gcount())));
      if (!ok) break;
    }
    if (ok) ok = parser.Finish();
  }
  if (!ok) {
    LogError("XML parse error", {{"error", parser.error()}});
    return 1;
  }

  if (opts.count_only) {
    std::printf("%lld\n", static_cast<long long>(counter.results()));
  } else if (!suppress_results) {
    // Flush any fragments not yet printed (e.g. interleaved outer ones).
    for (size_t i = printer.printed(); i < printer.all().size(); ++i) {
      std::fputs(printer.all()[i].c_str(), stdout);
      std::fputc('\n', stdout);
    }
  }
  if (!opts.profile_format.empty()) {
    spex::obs::ProfileReport report = engine.Profile();
    report.query = opts.query;  // spans index the text as typed
    if (opts.profile_format == "json") {
      std::fputs(report.ToJson().c_str(), stdout);
    } else if (opts.profile_format == "dot") {
      std::fputs(engine.network().ToDot(&report).c_str(), stdout);
    } else {
      std::fputs(report.ToTable().c_str(), stdout);
    }
  }
  if (opts.sampling_period > 0) {
    // Sampled attribution: same report shape as --profile, estimated from
    // the ~1/N instrumented batches.
    spex::obs::ProfileReport report = engine.SampledProfile();
    report.query = opts.query;
    std::fprintf(stdout, "sampled batches: %lld (period %d)\n%s",
                 static_cast<long long>(engine.sampled_batches()),
                 opts.sampling_period, report.ToTable().c_str());
  }
  if (opts.stats) {
    std::fprintf(stderr, "%s\n", engine.ComputeStats().ToString().c_str());
  }
  if (!opts.metrics_format.empty()) {
    const spex::obs::MetricsSnapshot snapshot = engine.metrics().Collect();
    const std::string text = opts.metrics_format == "json"
                                 ? snapshot.ToJson()
                                 : snapshot.ToPrometheusText();
    std::fputs(text.c_str(), stderr);
  }
  if (!opts.trace_out.empty()) {
    std::ofstream trace_file(opts.trace_out, std::ios::binary);
    if (!trace_file) {
      LogError("cannot write trace file", {{"file", opts.trace_out}});
      return 1;
    }
    trace_file << recorder->ToChromeJson();
    if (!trace_file.flush()) {
      LogError("error writing trace file", {{"file", opts.trace_out}});
      return 1;
    }
  }
  return 0;
}
