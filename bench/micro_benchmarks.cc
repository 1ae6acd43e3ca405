// Engineering micro-benchmarks (google-benchmark): XML parsing throughput,
// per-construct engine throughput, formula operations, DOM construction and
// the query compiler.  Not a paper figure — these guard the constants behind
// the §V asymptotics.
//
// With `--json <path>` the binary instead runs a fixed engine-workload suite
// (label-heavy DMOZ-like streams among them) and writes machine-readable
// records {benchmark, events_per_sec, bytes_per_event, peak_formula_nodes,
// allocs_per_event, results} — the perf-trajectory format committed as
// BENCH_PR<n>.json.  Heap allocations are counted through the overridden
// global operator new below, so the records also guard the zero-allocation
// steady-state claim for the network routing path.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

// ---------------------------------------------------------------------------
// Global allocation counting.  Every heap allocation in the process bumps the
// counter; the JSON harness samples it around the engine feed loop to report
// allocations per document message.  Counters are atomic because
// google-benchmark may allocate from helper threads.

static std::atomic<int64_t> g_alloc_count{0};

// The replacement operators pair malloc with free correctly; GCC flags the
// mix of new-expression and free-based implementation anyway.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#include <algorithm>

#include "baseline/dom_evaluator.h"
#include "baseline/nfa_evaluator.h"
#include "bench_util.h"
#include "obs/sampling_profiler.h"
#include "xml/simd_scan.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "xml/dom.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"
#include "xml/content_model.h"
#include "xml/xml_writer.h"

namespace spex {
namespace {

const std::vector<StreamEvent>& MondialEvents() {
  static const std::vector<StreamEvent>* events = [] {
    auto* v = new std::vector<StreamEvent>(GenerateToVector(
        [](EventSink* s) { GenerateMondialLike(42, 0.2, s); }));
    return v;
  }();
  return *events;
}

const std::string& MondialXml() {
  static const std::string* xml =
      new std::string(EventsToXml(MondialEvents()));
  return *xml;
}

void BM_XmlParse(benchmark::State& state) {
  const std::string& xml = MondialXml();
  for (auto _ : state) {
    RecordingEventSink sink;
    XmlParser parser(&sink);
    bool ok = parser.Parse(xml);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(MondialXml().size()));
}
BENCHMARK(BM_XmlParse);

void BM_DomBuild(benchmark::State& state) {
  const std::vector<StreamEvent>& events = MondialEvents();
  for (auto _ : state) {
    DomBuilder builder;
    for (const StreamEvent& e : events) builder.OnEvent(e);
    Document doc = builder.TakeDocument();
    benchmark::DoNotOptimize(doc.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_DomBuild);

void BM_QueryParse(benchmark::State& state) {
  for (auto _ : state) {
    ParseResult r = ParseRpeq("_*.country[province[city]].name|_*.x.y?");
    benchmark::DoNotOptimize(r.expr.get());
  }
}
BENCHMARK(BM_QueryParse);

void BM_Compile(benchmark::State& state) {
  ExprPtr query = MustParseRpeq("_*.country[province[city]].name");
  for (auto _ : state) {
    RunContext context;
    CountingResultSink sink;
    CompiledNetwork net = CompileToNetwork(*query, &sink, &context);
    benchmark::DoNotOptimize(net.network.node_count());
  }
}
BENCHMARK(BM_Compile);

void RunEngineBenchmark(benchmark::State& state, const char* query_text) {
  ExprPtr query = MustParseRpeq(query_text);
  const std::vector<StreamEvent>& events = MondialEvents();
  for (auto _ : state) {
    CountingResultSink sink;
    SpexEngine engine(*query, &sink);
    for (const StreamEvent& e : events) engine.OnEvent(e);
    benchmark::DoNotOptimize(sink.results());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}

void BM_EngineChildChain(benchmark::State& state) {
  RunEngineBenchmark(state, "mondial.country.name");
}
BENCHMARK(BM_EngineChildChain);

void BM_EngineDescendant(benchmark::State& state) {
  RunEngineBenchmark(state, "_*.city");
}
BENCHMARK(BM_EngineDescendant);

void BM_EngineQualifier(benchmark::State& state) {
  RunEngineBenchmark(state, "_*.country[province].name");
}
BENCHMARK(BM_EngineQualifier);

void BM_EngineNestedResults(benchmark::State& state) {
  RunEngineBenchmark(state, "_*._");
}
BENCHMARK(BM_EngineNestedResults);

void BM_NfaBaseline(benchmark::State& state) {
  ExprPtr query = MustParseRpeq("_*.city");
  const std::vector<StreamEvent>& events = MondialEvents();
  PathNfa nfa;
  std::string error;
  nfa.Build(*query, &error);
  for (auto _ : state) {
    NfaStreamEvaluator eval(&nfa);
    for (const StreamEvent& e : events) eval.OnEvent(e);
    benchmark::DoNotOptimize(eval.match_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_NfaBaseline);

void BM_StreamingValidator(benchmark::State& state) {
  Schema schema;
  std::string error;
  bool ok = ParseSchema(
      "root=mondial\nmondial=country*\n"
      "country=name,population,province*,religions*\n"
      "province=name,city*\ncity=name\nname=TEXT\npopulation=TEXT\n"
      "religions=TEXT\n",
      &schema, &error);
  if (!ok) state.SkipWithError(error.c_str());
  const std::vector<StreamEvent>& events = MondialEvents();
  for (auto _ : state) {
    StreamingValidator validator(&schema);
    for (const StreamEvent& e : events) validator.OnEvent(e);
    benchmark::DoNotOptimize(validator.valid());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_StreamingValidator);

void BM_FormulaOrChain(benchmark::State& state) {
  for (auto _ : state) {
    Formula f = Formula::Var(0);
    for (VarId v = 1; v < 64; ++v) f = Formula::Or(f, Formula::Var(v));
    benchmark::DoNotOptimize(f.NodeCount());
  }
}
BENCHMARK(BM_FormulaOrChain);

void BM_FormulaEvaluate(benchmark::State& state) {
  Formula f = Formula::Var(0);
  Assignment a;
  for (VarId v = 1; v < 64; ++v) {
    f = Formula::Or(Formula::And(f, Formula::Var(v)), Formula::Var(v + 100));
    if (v % 2 == 0) a.Set(v, v % 4 == 0);
  }
  for (auto _ : state) {
    Truth t = f.Evaluate(a);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_FormulaEvaluate);

void BM_FormulaSimplify(benchmark::State& state) {
  Formula f = Formula::Var(0);
  Assignment a;
  for (VarId v = 1; v < 64; ++v) {
    f = Formula::Or(Formula::And(f, Formula::Var(v)), Formula::Var(v + 100));
    if (v % 2 == 0) a.Set(v, false);
  }
  for (auto _ : state) {
    Formula g = f.PruneFalse(a);
    benchmark::DoNotOptimize(g.NodeCount());
  }
}
BENCHMARK(BM_FormulaSimplify);

}  // namespace

// ---------------------------------------------------------------------------
// JSON workload suite (--json <path>).

namespace benchjson {
namespace {

struct Workload {
  const char* name;
  const char* query;
  // Fills the event stream; called once, outside all timing.
  std::vector<StreamEvent> (*generate)();
};

std::vector<StreamEvent> DmozStructure() {
  return GenerateToVector(
      [](EventSink* s) { GenerateDmozLike(42, 0.05, /*content=*/false, s); });
}

std::vector<StreamEvent> DmozContent() {
  return GenerateToVector(
      [](EventSink* s) { GenerateDmozLike(42, 0.02, /*content=*/true, s); });
}

std::vector<StreamEvent> Mondial() {
  return GenerateToVector(
      [](EventSink* s) { GenerateMondialLike(42, 1.0, s); });
}

std::vector<StreamEvent> Wordnet() {
  return GenerateToVector(
      [](EventSink* s) { GenerateWordnetLike(42, 0.25, s); });
}

// The workload grid: DMOZ-like streams are the label-heavy ones the perf
// trajectory tracks (flat, millions of short-label elements at full scale).
const Workload kWorkloads[] = {
    {"dmoz_child_chain", "RDF.Topic.Title", DmozStructure},
    {"dmoz_no_match", "RDF.Topic.absent", DmozStructure},
    {"dmoz_descendant", "_*.editor", DmozStructure},
    {"dmoz_qualifier_past", "_*.Topic[editor].newsGroup", DmozStructure},
    {"dmoz_content_links", "RDF.Topic.link", DmozContent},
    {"mondial_qualifier", "_*.country[province].name", Mondial},
    {"mondial_nested", "_*._", Mondial},
    {"wordnet_qualifier", "_*.Noun[wordForm].gloss", Wordnet},
};

int64_t SerializedBytes(const std::vector<StreamEvent>& events) {
  int64_t bytes = 0;
  for (const StreamEvent& e : events) {
    switch (e.kind) {
      case EventKind::kStartElement:
        bytes += static_cast<int64_t>(e.name.size()) + 2;
        break;
      case EventKind::kEndElement:
        bytes += static_cast<int64_t>(e.name.size()) + 3;
        break;
      case EventKind::kText:
        bytes += static_cast<int64_t>(e.text.size());
        break;
      default:
        break;
    }
  }
  return bytes;
}

struct Record {
  std::string name;
  double events_per_sec = 0;
  double bytes_per_event = 0;
  int64_t peak_formula_nodes = 0;
  double allocs_per_event = 0;
  int64_t results = 0;
};

// --observe=full: attach a trace recorder to every workload engine
// (--observe=off, the default, attaches nothing; counters are always on).
// BENCH_PR2.json pairs an off run against a full run to price tracing.
bool g_trace = false;
// --profile: attach the per-node cost profiler instead.  Recorded as the
// pseudo-level "profile" so BENCH_PR3.json prices the EXPLAIN/PROFILE
// instrumentation alongside off/full.
bool g_profile = false;
// --sampling=N: attach the batch-granular sampling profiler (obs/
// sampling_profiler.h) at period N.  The observe name stays "off" — the
// whole point is pricing the always-on sampler against observe=off records,
// which is how the PR8 bench gate proves the ≤2% overhead budget.
int g_sampling = 0;

const char* ObserveName() {
  if (g_profile) return "profile";
  return g_trace ? "full" : "off";
}

// Attaches what --observe=full / --profile ask for to one workload engine,
// owning the recorder and accumulator for the engine's lifetime.
class Observation {
 public:
  explicit Observation(SpexEngine* engine) {
    if (g_trace) {
      recorder_ = std::make_unique<obs::TraceRecorder>();
      engine->AttachTrace(recorder_.get());
    }
    if (g_profile) {
      profiler_ = std::make_unique<obs::ProfileAccumulator>(
          engine->network().node_count());
      engine->AttachProfiler(profiler_.get());
    }
  }

 private:
  std::unique_ptr<obs::TraceRecorder> recorder_;
  std::unique_ptr<obs::ProfileAccumulator> profiler_;
};

// Feeds the stream in EngineOptions::batch_size chunks, exactly as XmlParser
// delivers in production (DESIGN.md §11); the engine sweeps whole batches,
// cut only at qualifier-scope exits.
void FeedStream(SpexEngine* engine, const std::vector<StreamEvent>& events,
                int batch_size) {
  const size_t step = static_cast<size_t>(std::max(1, batch_size));
  for (size_t i = 0; i < events.size(); i += step) {
    engine->OnEventBatch(events.data() + i,
                         std::min(step, events.size() - i));
  }
}

Record RunWorkload(const Workload& w) {
  ExprPtr query = MustParseRpeq(w.query);
  std::vector<StreamEvent> events = w.generate();
  const int64_t n = static_cast<int64_t>(events.size());
  Record rec;
  rec.name = w.name;
  rec.bytes_per_event =
      static_cast<double>(SerializedBytes(events)) / static_cast<double>(n);

  // Stamp interned label symbols once, as XmlParser does at parse time in
  // the production configuration; the engines share the table through
  // EngineOptions::symbols.
  SymbolTable symbols;
  for (StreamEvent& e : events) {
    if (e.IsElement()) e.label = symbols.Intern(e.name);
  }
  EngineOptions options;
  options.symbols = &symbols;

  // One process-wide sampler (as EnginePool holds one) so --sampling prices
  // the production wiring: relaxed-load draw per batch, timed sweeps on the
  // stride.
  static obs::SamplingProfiler sampler(
      obs::SamplingProfiler::Options{g_sampling});

  // Warm-up run: faults in the event vector and fills allocator caches so
  // the measured runs see steady state.
  {
    CountingResultSink sink;
    SpexEngine engine(*query, &sink, options);
    Observation observation(&engine);
    if (g_sampling > 0) engine.SetBatchSampler(&sampler);
    FeedStream(&engine, events, options.batch_size);
    rec.results = sink.results();
  }

  // Allocation-counting run: samples the global counter around the feed loop
  // only (engine construction excluded), i.e. the per-message routing cost.
  {
    CountingResultSink sink;
    SpexEngine engine(*query, &sink, options);
    Observation observation(&engine);
    if (g_sampling > 0) engine.SetBatchSampler(&sampler);
    const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
    FeedStream(&engine, events, options.batch_size);
    const int64_t after = g_alloc_count.load(std::memory_order_relaxed);
    rec.allocs_per_event =
        static_cast<double>(after - before) / static_cast<double>(n);
    rec.peak_formula_nodes = engine.ComputeStats().max_formula_nodes;
  }

  // Timed runs: best of `reps`, each over the full stream.
  double best = 1e100;
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    CountingResultSink sink;
    SpexEngine engine(*query, &sink, options);
    Observation observation(&engine);
    if (g_sampling > 0) engine.SetBatchSampler(&sampler);
    auto start = std::chrono::steady_clock::now();
    FeedStream(&engine, events, options.batch_size);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    if (secs < best) best = secs;
  }
  rec.events_per_sec = static_cast<double>(n) / best;
  return rec;
}

// Parser-only record: serializes the content-bearing DMOZ stream back to XML
// text once, then measures XmlParser tokenization throughput into a
// discarding sink — the SWAR/SIMD structural scan (simd_scan.h) with the
// transducer network out of the picture.  bytes_per_event here is real
// markup bytes per emitted document message.
Record RunXmlScan() {
  class NullSink : public EventSink {
   public:
    void OnEvent(const StreamEvent&) override {}
    void OnEventBatch(const StreamEvent*, size_t) override {}
  };
  const std::string xml = EventsToXml(DmozContent());
  Record rec;
  rec.name = "xml_scan";  // backend-independent name; the active backend is
                          // reported on stderr so matrix runs stay comparable
  std::fprintf(stderr, "xml_scan: scanner backend = %s\n",
               scan::BackendName());
  int64_t n = 0;
  auto parse_once = [&xml](int64_t* events_out) {
    NullSink sink;
    SymbolTable symbols;
    XmlParserOptions po;
    po.symbols = &symbols;
    XmlParser parser(&sink, po);
    if (!parser.Parse(xml)) {
      std::fprintf(stderr, "xml_scan: parse failed: %s\n",
                   parser.error().c_str());
      std::abort();
    }
    if (events_out != nullptr) *events_out = parser.events_emitted();
  };
  parse_once(&n);  // warm-up
  {
    const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
    parse_once(nullptr);
    const int64_t after = g_alloc_count.load(std::memory_order_relaxed);
    rec.allocs_per_event =
        static_cast<double>(after - before) / static_cast<double>(n);
  }
  double best = 1e100;
  for (int r = 0; r < 3; ++r) {
    auto start = std::chrono::steady_clock::now();
    parse_once(nullptr);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    if (secs < best) best = secs;
  }
  rec.events_per_sec = static_cast<double>(n) / best;
  rec.bytes_per_event =
      static_cast<double>(xml.size()) / static_cast<double>(n);
  rec.results = 0;
  return rec;
}

int RunJsonBenchmarks(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"meta\": %s,\n  \"records\": [\n",
               bench::MetaJson("micro_benchmarks", ObserveName()).c_str());
  bool first = true;
  auto emit = [&](const Record& rec) {
    std::fprintf(stderr, "%-24s %12.0f ev/s  %6.1f B/ev  %5lld peak-nodes  "
                 "%8.4f allocs/ev  %lld results  [observe=%s]\n",
                 rec.name.c_str(), rec.events_per_sec, rec.bytes_per_event,
                 static_cast<long long>(rec.peak_formula_nodes),
                 rec.allocs_per_event, static_cast<long long>(rec.results),
                 ObserveName());
    std::fprintf(
        f,
        "%s  {\"benchmark\": \"%s\", \"observe\": \"%s\", "
        "\"events_per_sec\": %.1f, "
        "\"bytes_per_event\": %.2f, \"peak_formula_nodes\": %lld, "
        "\"allocs_per_event\": %.4f, \"results\": %lld}",
        first ? "" : ",\n", rec.name.c_str(), ObserveName(),
        rec.events_per_sec,
        rec.bytes_per_event, static_cast<long long>(rec.peak_formula_nodes),
        rec.allocs_per_event, static_cast<long long>(rec.results));
    first = false;
  };
  for (const Workload& w : kWorkloads) emit(RunWorkload(w));
  emit(RunXmlScan());
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return 0;
}

}  // namespace
}  // namespace benchjson
}  // namespace spex

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--observe=", 10) == 0) {
      const std::string level = argv[i] + 10;
      if (level != "off" && level != "full") {
        std::fprintf(stderr, "bad --observe level (off|full): %s\n",
                     level.c_str());
        return 1;
      }
      spex::benchjson::g_trace = level == "full";
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      spex::benchjson::g_profile = true;
    } else if (std::strncmp(argv[i], "--sampling=", 11) == 0) {
      spex::benchjson::g_sampling = std::atoi(argv[i] + 11);
      if (spex::benchjson::g_sampling < 0) {
        std::fprintf(stderr, "bad --sampling period: %s\n", argv[i] + 11);
        return 1;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (json_path != nullptr) {
    return spex::benchjson::RunJsonBenchmarks(json_path);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
