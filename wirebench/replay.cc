#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "load_gen.h"
#include "net/wire_protocol.h"
#include "obs/trace.h"
#include "runtime/engine_pool.h"
#include "runtime/query_cache.h"
#include "runtime/query_registry.h"
#include "spex/engine.h"
#include "spex/multi_query.h"
#include "xml/xml_parser.h"

namespace wirebench {
namespace {

// What spexserve runs sessions with (tools/spexserve.cc defaults).
constexpr int kEngineBatch = 64;
constexpr size_t kFeedBatchEvents = 1024;  // NetServerOptions default

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span recorder with a parent stack.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* spans) : spans_(*spans) {}

  void Begin(const char* name, int doc) {
    Span s;
    s.name = name;
    s.doc = doc;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(s));
  }
  void End() {
    Span& s = spans_[static_cast<size_t>(open_.back())];
    s.dur_ns = NowNs() - s.start_ns;
    open_.pop_back();
  }
  template <typename Fn>
  void Scope(const char* name, int doc, Fn&& fn) {
    Begin(name, doc);
    fn();
    End();
  }

 private:
  std::vector<Span>& spans_;
  std::vector<int> open_;
};

// Counts results and notes when the first fragment completes.
class FirstEndSink : public spex::CountingResultSink {
 public:
  void OnResultEnd(int64_t) override { ended_ = true; }
  bool ended() const { return ended_; }

 private:
  bool ended_ = false;
};

spex::EngineOptions SessionEngineOptions() {
  spex::EngineOptions options;
  options.batch_size = kEngineBatch;
  options.track_open_elements = true;  // as every pool session
  return options;
}

// Runs one event at a time until the first result fragment completes: the
// share of the document consumed by then is the earliest point a
// progressive server could send its first RESULT frame.
double FirstResultFrac(const Corpus& corpus,
                       const std::shared_ptr<const spex::QueryTemplate>& single,
                       const std::vector<spex::StreamEvent>& events) {
  const int slots = corpus.slots;
  std::vector<std::unique_ptr<FirstEndSink>> sinks;
  std::vector<spex::ResultSink*> ptrs;
  for (int s = 0; s < slots; ++s) {
    sinks.push_back(std::make_unique<FirstEndSink>());
    ptrs.push_back(sinks.back().get());
  }
  std::unique_ptr<spex::EventSink> engine;
  if (corpus.population) {
    engine = std::make_unique<spex::MultiQueryEngine>(corpus.multi, ptrs,
                                                      SessionEngineOptions());
  } else {
    engine = std::make_unique<spex::SpexEngine>(single, ptrs[0],
                                                SessionEngineOptions());
  }
  for (size_t i = 0; i < events.size(); ++i) {
    engine->OnEventBatch(&events[i], 1);
    for (const auto& sink : sinks) {
      if (sink->ended()) {
        return static_cast<double>(i + 1) / static_cast<double>(events.size());
      }
    }
  }
  return -1;  // no results
}

double MedianPrepareMs(const Corpus& corpus) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    spex::CompiledQueryCache cache(128);
    const int64_t t0 = NowNs();
    const bool ok = corpus.population ? cache.GetMulti(corpus.queries).ok()
                                      : cache.Get(corpus.prepare_text).ok();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!ok) return -1;
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

ReplayResult Replay(const Corpus& corpus) {
  ReplayResult r;
  Tracer tracer(&r.spans);

  spex::CompiledQueryCache cache(128);
  std::shared_ptr<const spex::QueryTemplate> single;
  if (!corpus.population) single = cache.Get(corpus.prepare_text).value();

  // A 1-worker pool with a query registry installed, as spexserve runs its
  // sessions; the queue is deep enough that Feed never waits on the worker,
  // so runtime.feed is the producer-side copy and hand-off alone.
  spex::PoolOptions pool_options;
  pool_options.threads = 1;
  pool_options.queue_capacity = 4096;
  pool_options.engine.batch_size = kEngineBatch;
  spex::QueryRegistry registry;
  spex::EnginePool pool(pool_options);
  pool.SetQueryRegistry(&registry);

  spex::XmlParserOptions parser_options;  // spexserve's parser bounds
  parser_options.max_depth = 10000;
  parser_options.max_text_bytes = 16u << 20;

  double events_total = 0;
  double bytes_total = 0;
  double deliveries = 0;
  double degree = 0;
  double results = 0;
  double result_bytes = 0;
  double buffered_peak = 0;
  double first_frac_sum = 0;
  int first_frac_docs = 0;
  size_t encoded_bytes = 0;

  const int docs = static_cast<int>(corpus.docs.size());
  for (int d = 0; d < docs; ++d) {
    const std::string& xml = corpus.docs[static_cast<size_t>(d)];
    const uint32_t doc_id = static_cast<uint32_t>(d + 1);
    std::vector<std::string> frames;  // generator side: not traced
    for (size_t off = 0; off < xml.size(); off += kChunkBytes) {
      spex::net::StreamFrame stream;
      stream.handle = 1;
      stream.doc_id = doc_id;
      stream.chunk = std::string_view(xml).substr(off, kChunkBytes);
      frames.push_back(stream.Encode());
    }

    tracer.Begin("doc", d);
    spex::net::FrameDecoder decoder;
    spex::RecordingEventSink events_sink;
    spex::XmlParser parser(&events_sink, parser_options);
    bool parsed = true;
    for (const std::string& bytes : frames) {
      spex::net::StreamFrame stream;
      tracer.Scope("net.decode", d, [&] {
        spex::net::Frame frame;
        decoder.Append(bytes);
        if (!decoder.Next(&frame) || !stream.Parse(frame.payload).ok()) {
          parsed = false;
        }
      });
      tracer.Scope("xml.parse", d,
                   [&] { parsed = parser.Feed(stream.chunk) && parsed; });
    }
    tracer.Scope("xml.parse", d, [&] { parsed = parser.Finish() && parsed; });
    if (!parsed) {
      r.fatal = "replay could not decode/parse document " + std::to_string(d);
      return r;
    }
    const std::vector<spex::StreamEvent>& events = events_sink.events();

    // Open → Feed (by value, in the server's 1024-event slices) → Close →
    // Wait, on the pool.
    tracer.Scope("runtime.session", d, [&] {
      std::shared_ptr<spex::StreamSession> session =
          corpus.population ? pool.OpenSubscriptions(corpus.multi)
                            : pool.OpenSession(single);
      for (size_t i = 0; i < events.size(); i += kFeedBatchEvents) {
        const size_t end = std::min(events.size(), i + kFeedBatchEvents);
        tracer.Scope("runtime.feed", d, [&] {
          session->Feed(std::vector<spex::StreamEvent>(
              events.begin() + static_cast<std::ptrdiff_t>(i),
              events.begin() + static_cast<std::ptrdiff_t>(end)));
        });
      }
      session->Close();
      session->Wait();
    });

    // The engine alone: instantiate the template, then deliver the
    // document in the pool's 64-event batches.
    std::vector<std::unique_ptr<spex::SerializingResultSink>> sinks;
    std::vector<spex::ResultSink*> ptrs;
    for (int s = 0; s < corpus.slots; ++s) {
      sinks.push_back(std::make_unique<spex::SerializingResultSink>());
      ptrs.push_back(sinks.back().get());
    }
    std::unique_ptr<spex::SpexEngine> engine;
    std::unique_ptr<spex::MultiQueryEngine> multi;
    spex::EventSink* target = nullptr;
    tracer.Scope("spex.instantiate", d, [&] {
      if (corpus.population) {
        multi = std::make_unique<spex::MultiQueryEngine>(
            corpus.multi, ptrs, SessionEngineOptions());
        target = multi.get();
      } else {
        engine = std::make_unique<spex::SpexEngine>(single, ptrs[0],
                                                    SessionEngineOptions());
        target = engine.get();
      }
    });
    tracer.Scope("spex.eval", d, [&] {
      for (size_t i = 0; i < events.size(); i += kEngineBatch) {
        target->OnEventBatch(&events[i],
                             std::min<size_t>(kEngineBatch, events.size() - i));
      }
    });
    const spex::obs::MetricsSnapshot snap = engine != nullptr
                                                ? engine->metrics().Collect()
                                                : multi->metrics().Collect();
    deliveries +=
        static_cast<double>(snap.SumAll("spex_transducer_messages_in"));
    degree += engine != nullptr ? engine->network().node_count()
                                : multi->shared_degree();
    for (const spex::obs::MetricSample& s : snap.samples) {
      if (s.name == "spex_output_buffered_events_peak") {
        buffered_peak = std::max(buffered_peak, static_cast<double>(s.value));
      }
    }

    // Frame every result as the server does, then check it all against
    // the oracle: the replay must measure the same work the wire did.
    ResultDigest digest(static_cast<size_t>(corpus.slots));
    tracer.Scope("net.encode", d, [&] {
      uint64_t total = 0;
      for (int s = 0; s < corpus.slots; ++s) {
        for (const std::string& f : sinks[static_cast<size_t>(s)]->results()) {
          spex::net::ResultFrame frame;
          frame.doc_id = doc_id;
          frame.slot = static_cast<uint32_t>(s);
          frame.fragment = f;
          encoded_bytes += frame.Encode().size();
          ++total;
        }
      }
      spex::net::DocDoneFrame done;
      done.doc_id = doc_id;
      done.certain = done.total = total;
      encoded_bytes += done.Encode().size();
    });
    for (int s = 0; s < corpus.slots; ++s) {
      for (const std::string& f : sinks[static_cast<size_t>(s)]->results()) {
        digest.Add(static_cast<uint32_t>(s), f);
        result_bytes += static_cast<double>(f.size());
      }
    }
    results += static_cast<double>(digest.count());

    tracer.Scope("baseline.dom", d, [&] { OracleDigest(corpus, xml); });
    tracer.End();  // doc

    const Expected& want = corpus.expected[static_cast<size_t>(d)];
    if (digest.count() != want.count || digest.Fold() != want.fold) {
      r.fatal = "replayed engine results differ from the oracle on document " +
                std::to_string(d);
      return r;
    }
    const double frac = FirstResultFrac(corpus, single, events);
    if (frac >= 0) {
      first_frac_sum += frac;
      ++first_frac_docs;
    }
    events_total += static_cast<double>(events.size());
    bytes_total += static_cast<double>(xml.size());
  }
  if (encoded_bytes == 0) r.fatal = "nothing encoded";

  std::map<std::string, double> total_ms;
  std::vector<double> child_ns(r.spans.size(), 0);
  for (const Span& s : r.spans) {
    total_ms[s.name] += static_cast<double>(s.dur_ns) / 1e6;
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.dur_ns);
    }
  }
  for (size_t i = 0; i < r.spans.size(); ++i) {
    r.self_ms[r.spans[i].name] +=
        (static_cast<double>(r.spans[i].dur_ns) - child_ns[i]) / 1e6;
  }
  const double n = docs;
  auto per_doc = [&](const char* name) { return total_ms[name] / n; };
  auto& m = r.metrics;
  m["net.decode_ms_per_doc"] = per_doc("net.decode");
  m["net.encode_ms_per_doc"] = per_doc("net.encode");
  m["xml.parse_ms_per_doc"] = per_doc("xml.parse");
  m["xml.parse_mb_per_s"] = bytes_total / 1e6 / (total_ms["xml.parse"] / 1e3);
  m["xml.events_per_doc"] = events_total / n;
  m["runtime.feed_ms_per_doc"] = per_doc("runtime.feed");
  m["runtime.session_overhead_ms_per_doc"] = per_doc("runtime.session") -
                                             per_doc("spex.instantiate") -
                                             per_doc("spex.eval");
  m["runtime.prepare_ms"] = MedianPrepareMs(corpus);
  m["spex.instantiate_ms_per_doc"] = per_doc("spex.instantiate");
  m["spex.eval_ms_per_doc"] = per_doc("spex.eval");
  m["spex.deliveries_per_event"] = deliveries / events_total;
  m["spex.ns_per_delivery"] = total_ms["spex.eval"] * 1e6 / deliveries;
  m["spex.network_degree"] = degree / n;
  m["spex.results_per_doc"] = results / n;
  m["spex.result_bytes_per_doc"] = result_bytes / n;
  m["spex.first_result_event_frac"] =
      first_frac_docs > 0 ? first_frac_sum / first_frac_docs : 1.0;
  m["spex.output_buffered_peak_events"] = buffered_peak;
  m["baseline.dom_ms_per_doc"] = per_doc("baseline.dom");
  m["baseline.spex_over_dom"] =
      (total_ms["xml.parse"] + total_ms["spex.eval"]) /
      total_ms["baseline.dom"];
  r.attributed_ms_per_doc =
      per_doc("net.decode") + per_doc("xml.parse") + per_doc("runtime.feed") +
      per_doc("spex.instantiate") + per_doc("spex.eval") +
      per_doc("net.encode");
  return r;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  // One track per document, so each document's spans nest as a flame graph.
  spex::obs::TraceRecorder recorder(std::max<size_t>(1, spans.size()));
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    recorder.SetTrackName(s.doc + 1, "doc " + std::to_string(s.doc));
    recorder.RecordSpan(s.doc + 1, recorder.InternName(s.name),
                        s.start_ns - base, s.start_ns - base + s.dur_ns);
  }
  return recorder.ToChromeJson();
}

}  // namespace wirebench
