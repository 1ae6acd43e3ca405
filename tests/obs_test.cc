// Tests of the observability subsystem: instrument semantics (counter /
// gauge / base-2 histogram), registry snapshots and exposition formats,
// the bounded trace recorder, and the engine integration (mid-stream
// snapshot consistency, Chrome-trace round-trip with proper span nesting,
// per-transducer message counts summing to the §V total).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpeq/parser.h"
#include "spex/engine.h"
#include "spex/multi_query.h"
#include "xml/generators.h"
#include "xml/xml_parser.h"

namespace spex {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricRegistry;
using obs::MetricSample;
using obs::MetricsSnapshot;
using obs::MetricType;
using obs::TraceRecorder;

// ---------------------------------------------------------------------------
// A minimal strict JSON parser, enough to round-trip the exporters' output.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            // Keep the escape verbatim; the tests never depend on it.
            *out += "\\u";
            *out += text_.substr(pos_, 4);
            pos_ += 4;
            break;
          }
          default: return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      for (;;) {
        std::string key;
        JsonValue value;
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      for (;;) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::kNull;
      pos_ += 4;
      return true;
    }
    // Number.
    size_t start = pos_;
    if (c == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

JsonValue MustParseJson(const std::string& text) {
  JsonValue value;
  JsonReader reader(text);
  EXPECT_TRUE(reader.Parse(&value)) << "invalid JSON: " << text.substr(0, 400);
  return value;
}

// ---------------------------------------------------------------------------
// Instrument semantics.

TEST(MetricsTest, CounterIsMonotone) {
  MetricRegistry registry;
  Counter* c = registry.AddCounter("events");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42);
  MetricsSnapshot snap = registry.Collect();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].type, MetricType::kCounter);
  EXPECT_EQ(snap.Value("events"), 42);
}

TEST(MetricsTest, GaugeTracksHighWater) {
  MetricRegistry registry;
  Gauge* g = registry.AddGauge("occupancy");
  g->Set(7);
  g->Add(5);   // 12, new high water
  g->Add(-9);  // 3
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(g->max(), 12);
  MetricsSnapshot snap = registry.Collect();
  EXPECT_EQ(snap.Value("occupancy"), 3);
  EXPECT_EQ(snap.samples[0].max, 12);
}

TEST(MetricsTest, HistogramBase2Buckets) {
  Histogram h;
  h.Observe(0);  // bucket 0
  h.Observe(-5); // bucket 0
  h.Observe(1);  // bucket 1 (bit_width 1)
  h.Observe(2);  // bucket 2
  h.Observe(3);  // bucket 2
  h.Observe(4);  // bucket 3
  h.Observe(7);  // bucket 3
  h.Observe(8);  // bucket 4
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(3), 2);
  EXPECT_EQ(h.bucket(4), 1);
  EXPECT_EQ(h.count(), 8);
  EXPECT_EQ(h.sum(), 0 - 5 + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(h.max(), 8);
  // Bucket i holds values in (BucketUpperBound(i-1), BucketUpperBound(i)].
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023);
}

TEST(MetricsTest, HistogramExtremeValuesStayInRange) {
  Histogram h;
  h.Observe(INT64_MAX);
  h.Observe(INT64_MIN);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1);
}

TEST(MetricsTest, CallbackGaugeReadsAtCollectTime) {
  MetricRegistry registry;
  int64_t live = 3;
  registry.AddCallbackGauge("live_nodes", {}, [&live] { return live; });
  EXPECT_EQ(registry.Collect().Value("live_nodes"), 3);
  live = 99;
  EXPECT_EQ(registry.Collect().Value("live_nodes"), 99);
}

TEST(MetricsTest, SnapshotAggregatesAcrossLabels) {
  MetricRegistry registry;
  registry.AddGauge("messages", {{"node", "0"}})->Set(10);
  registry.AddGauge("messages", {{"node", "1"}})->Set(32);
  registry.AddGauge("other")->Set(1000);
  MetricsSnapshot snap = registry.Collect();
  EXPECT_EQ(snap.SumAll("messages"), 42);
  EXPECT_EQ(snap.MaxAll("messages"), 32);
  EXPECT_EQ(snap.Value("messages"), 10);  // first registered
  ASSERT_NE(snap.Find("messages"), nullptr);
  EXPECT_EQ(snap.Find("missing"), nullptr);
  EXPECT_EQ(snap.SumAll("missing"), 0);
}

TEST(MetricsTest, PrometheusExposition) {
  MetricRegistry registry;
  registry.AddCounter("spex_events_total")->Increment(25);
  registry.AddGauge("spex_messages", {{"node", "0"}, {"transducer", "IN"}})
      ->Set(50);
  Histogram* h = registry.AddHistogram("spex_delay");
  h->Observe(0);
  h->Observe(2);
  std::string text = registry.Collect().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE spex_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("spex_events_total 25"), std::string::npos);
  EXPECT_NE(text.find("spex_messages{node=\"0\",transducer=\"IN\"} 50"),
            std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("spex_delay_bucket{le=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("spex_delay_bucket{le=\"3\"} 2"), std::string::npos);
  EXPECT_NE(text.find("spex_delay_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("spex_delay_count 2"), std::string::npos);
  EXPECT_NE(text.find("spex_delay_sum 2"), std::string::npos);
}

TEST(MetricsTest, JsonExpositionRoundTrips) {
  MetricRegistry registry;
  registry.AddCounter("c")->Increment(7);
  registry.AddGauge("g", {{"k", "va\"lue"}})->Set(-3);
  registry.AddHistogram("h")->Observe(5);
  JsonValue root = MustParseJson(registry.Collect().ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* metrics = root.Get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->kind, JsonValue::kArray);
  ASSERT_EQ(metrics->array.size(), 3u);
  const JsonValue& counter = metrics->array[0];
  EXPECT_EQ(counter.Get("name")->str, "c");
  EXPECT_EQ(counter.Get("type")->str, "counter");
  EXPECT_EQ(counter.Get("value")->number, 7);
  const JsonValue& gauge = metrics->array[1];
  EXPECT_EQ(gauge.Get("labels")->Get("k")->str, "va\"lue");  // escape survived
  EXPECT_EQ(gauge.Get("value")->number, -3);
  const JsonValue& histogram = metrics->array[2];
  EXPECT_EQ(histogram.Get("type")->str, "histogram");
  EXPECT_EQ(histogram.Get("count")->number, 1);
}

// ---------------------------------------------------------------------------
// Trace recorder.

TEST(TraceTest, RingOverwritesOldestSpans) {
  TraceRecorder recorder(/*capacity=*/8);
  int name = recorder.InternName("span");
  for (int i = 0; i < 20; ++i) {
    recorder.RecordSpan(0, name, /*start_ns=*/i * 10, /*end_ns=*/i * 10 + 5);
  }
  EXPECT_EQ(recorder.size(), 8u);
  EXPECT_EQ(recorder.recorded(), 20);
  EXPECT_EQ(recorder.dropped(), 12);
  std::vector<TraceRecorder::Event> events = recorder.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().ts_ns, 120);  // span #12 is the oldest survivor
  EXPECT_EQ(events.back().ts_ns, 190);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const auto& a, const auto& b) { return a.ts_ns < b.ts_ns; }));
}

TEST(TraceTest, ChromeJsonHasTracksAndSpans) {
  TraceRecorder recorder(16);
  recorder.SetTrackName(0, "stream");
  recorder.SetTrackName(1, "CH(a)");
  int doc = recorder.InternName("document");
  recorder.RecordSpan(0, doc, 1000, 5000);
  recorder.RecordSpan(1, doc, 2000, 3000);
  recorder.RecordCounter(recorder.InternName("buffered"), 2500, 3);
  JsonValue root = MustParseJson(recorder.ToChromeJson());
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  int metadata = 0, spans = 0, counters = 0;
  for (const JsonValue& e : events->array) {
    ASSERT_NE(e.Get("ph"), nullptr);
    const std::string& ph = e.Get("ph")->str;
    EXPECT_EQ(e.Get("pid")->number, 1);
    if (ph == "M") {
      ++metadata;
    } else if (ph == "X") {
      ++spans;
      EXPECT_GE(e.Get("dur")->number, 0);
    } else if (ph == "C") {
      ++counters;
    }
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(counters, 1);
}

// ---------------------------------------------------------------------------
// Engine integration.

std::vector<StreamEvent> Events(const std::string& xml) {
  std::vector<StreamEvent> events;
  std::string error;
  EXPECT_TRUE(ParseXmlToEvents(xml, &events, &error)) << error;
  return events;
}

constexpr char kDoc[] =
    "<lib><book><author>A</author><title>T1</title></book>"
    "<book><title>T2</title></book>"
    "<book><author>B</author><title>T3</title></book></lib>";

TEST(ObsEngineTest, MidStreamSnapshotIsConsistent) {
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);  // counters are always on
  std::vector<StreamEvent> events = Events(kDoc);
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) engine.OnEvent(events[i]);

  // A mid-stream scrape must agree with the engine's own accounting.
  MetricsSnapshot snap = engine.metrics().Collect();
  EXPECT_EQ(snap.Value("spex_engine_events"), static_cast<int64_t>(half));
  EXPECT_EQ(snap.Value("spex_events_total"), static_cast<int64_t>(half));
  RunStats stats = engine.ComputeStats();
  EXPECT_EQ(snap.SumAll("spex_transducer_messages_in"), stats.total_messages);
  EXPECT_GT(stats.total_messages, 0);

  for (size_t i = half; i < events.size(); ++i) engine.OnEvent(events[i]);
  snap = engine.metrics().Collect();
  EXPECT_EQ(snap.Value("spex_engine_events"),
            static_cast<int64_t>(events.size()));
  EXPECT_EQ(snap.SumAll("spex_transducer_messages_in"),
            engine.ComputeStats().total_messages);
  EXPECT_EQ(sink.results(), 2);
}

TEST(ObsEngineTest, PerTransducerMessagesSumToTotal) {
  // The acceptance criterion behind `spexquery --metrics=json`: the
  // per-transducer message counts must sum to RunStats::total_messages.
  // A trace recorder attached for the whole run changes none of it.
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  TraceRecorder recorder;
  engine.AttachTrace(&recorder);
  for (const StreamEvent& e : Events(kDoc)) engine.OnEvent(e);
  MetricsSnapshot snap = engine.metrics().Collect();
  RunStats stats = engine.ComputeStats();
  int64_t sum = 0;
  int labelled = 0;
  for (const MetricSample& s : snap.samples) {
    if (s.name != "spex_transducer_messages_in") continue;
    sum += s.value;
    ++labelled;
  }
  EXPECT_EQ(labelled, stats.network_degree);
  EXPECT_EQ(sum, stats.total_messages);
  // The stream-side event counter agrees too.
  EXPECT_EQ(snap.Value("spex_events_total"), stats.events_processed);
}

TEST(ObsEngineTest, DecisionDelayHistogramCountsEveryCandidate) {
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  for (const StreamEvent& e : Events(kDoc)) engine.OnEvent(e);
  MetricsSnapshot snap = engine.metrics().Collect();
  const MetricSample* delay = snap.Find("spex_output_decision_delay_events");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->type, MetricType::kHistogram);
  // Every candidate is decided exactly once (streamed or dropped).
  EXPECT_EQ(delay->count,
            engine.ComputeStats().output.candidates_created);
  EXPECT_GT(delay->count, 0);
}

// OU times each candidate with its own round counter, so the delay
// histogram does not depend on how rounds are grouped into sweeps: equal at
// batch sizes 1, 7 and 64 for a condition-free query (whole-batch sweeps)
// and a qualifier query (sweeps cut at </Topic>).
TEST(ObsEngineTest, DecisionDelayIndependentOfSweepSize) {
  const std::vector<StreamEvent> events = GenerateToVector([](EventSink* s) {
    GenerateDmozLike(42, 0.002, /*content=*/true, s);
  });
  for (const char* text : {"_*.Topic.Title", "_*.Topic[link].Title"}) {
    SCOPED_TRACE(text);
    ExprPtr query = MustParseRpeq(text);
    std::vector<std::vector<int64_t>> histograms;
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      CountingResultSink sink;
      SpexEngine engine(*query, &sink);
      for (size_t i = 0; i < events.size(); i += batch) {
        engine.OnEventBatch(events.data() + i,
                            std::min(batch, events.size() - i));
      }
      const Histogram* delay = engine.decision_delay();
      ASSERT_NE(delay, nullptr);
      std::vector<int64_t> h = {delay->count(), delay->sum(), delay->max()};
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        h.push_back(delay->bucket(b));
      }
      histograms.push_back(std::move(h));
    }
    EXPECT_GT(histograms[0][0], 0);
    EXPECT_EQ(histograms[1], histograms[0]);
    EXPECT_EQ(histograms[2], histograms[0]);
  }
}

// The golden trace round-trip: record a real run with a recorder attached,
// export Chrome trace JSON, parse it back and check the spans form a proper
// nesting — node-track spans must sit inside a stream-track (tid 0) span,
// one per sweep (here one per document message: OnEvent feeds batches of
// one).
TEST(ObsEngineTest, TraceRoundTripsAsNestedChromeJson) {
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  TraceRecorder recorder;
  engine.AttachTrace(&recorder);
  for (const StreamEvent& e : Events(kDoc)) engine.OnEvent(e);

  EXPECT_GT(recorder.recorded(), 0);
  EXPECT_EQ(recorder.dropped(), 0);  // small doc, nothing overwritten

  JsonValue root = MustParseJson(recorder.ToChromeJson());
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);

  struct Span {
    int tid;
    double ts, dur;
  };
  std::vector<Span> spans;
  bool has_stream_track_name = false;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Get("ph")->str;
    if (ph == "M" && e.Get("args") != nullptr &&
        e.Get("args")->Get("name") != nullptr &&
        e.Get("args")->Get("name")->str == "stream") {
      has_stream_track_name = true;
    }
    if (ph != "X") continue;
    spans.push_back({static_cast<int>(e.Get("tid")->number),
                     e.Get("ts")->number, e.Get("dur")->number});
  }
  EXPECT_TRUE(has_stream_track_name);
  ASSERT_FALSE(spans.empty());

  // One tid-0 span per document message, in chronological order.
  std::vector<Span> stream;
  for (const Span& s : spans) {
    if (s.tid == 0) stream.push_back(s);
  }
  ASSERT_EQ(stream.size(), Events(kDoc).size());
  for (size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GE(stream[i].ts, stream[i - 1].ts + stream[i - 1].dur);
  }
  // Every node span is contained in exactly one stream span.
  for (const Span& s : spans) {
    if (s.tid == 0) continue;
    int containers = 0;
    for (const Span& outer : stream) {
      if (outer.ts <= s.ts && s.ts + s.dur <= outer.ts + outer.dur) {
        ++containers;
      }
    }
    EXPECT_EQ(containers, 1) << "span on tid " << s.tid << " at " << s.ts;
  }
}

TEST(ObsEngineTest, TraceRingStaysBoundedOnLongStreams) {
  ExprPtr query = MustParseRpeq("a.b");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  TraceRecorder recorder(/*capacity=*/64);  // the caller sizes the ring
  engine.AttachTrace(&recorder);
  engine.OnEvent(StreamEvent::StartDocument());
  engine.OnEvent(StreamEvent::StartElement("a"));
  for (int i = 0; i < 500; ++i) {
    engine.OnEvent(StreamEvent::StartElement("b"));
    engine.OnEvent(StreamEvent::EndElement("b"));
  }
  engine.OnEvent(StreamEvent::EndElement("a"));
  engine.OnEvent(StreamEvent::EndDocument());
  EXPECT_EQ(recorder.size(), 64u);
  EXPECT_GT(recorder.dropped(), 0);
  EXPECT_EQ(sink.results(), 500);
}

TEST(ObsEngineTest, ParserPublishesIntoEngineRegistry) {
  ExprPtr query = MustParseRpeq("_*.title");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  XmlParserOptions parser_options;
  parser_options.symbols = engine.symbol_table();
  parser_options.metrics = &engine.metrics();
  XmlParser parser(&engine, parser_options);
  ASSERT_TRUE(parser.Parse(kDoc));
  MetricsSnapshot snap = engine.metrics().Collect();
  EXPECT_EQ(snap.Value("spex_parser_bytes_consumed"),
            static_cast<int64_t>(std::string(kDoc).size()));
  EXPECT_EQ(snap.Value("spex_parser_events"),
            snap.Value("spex_engine_events"));
  EXPECT_EQ(snap.Value("spex_parser_max_depth"), 3);  // lib/book/title
}

TEST(ObsEngineTest, WatermarkReportsProgress) {
  ExprPtr query = MustParseRpeq("_*.book[author].title");
  CountingResultSink sink;
  EngineOptions options;
  std::vector<Watermark> seen;
  options.progress.every_events = 5;
  options.progress.callback = [&seen](const Watermark& w) {
    seen.push_back(w);
  };
  SpexEngine engine(*query, &sink, options);
  std::vector<StreamEvent> events = Events(kDoc);
  for (const StreamEvent& e : events) engine.OnEvent(e);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.size(), events.size() / 5);
  EXPECT_EQ(seen[0].events, 5);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].events, seen[i - 1].events + 5);
  }
  Watermark final_mark = engine.CurrentWatermark();
  EXPECT_EQ(final_mark.events, static_cast<int64_t>(events.size()));
  EXPECT_EQ(final_mark.results, 2);
  EXPECT_EQ(final_mark.pending_fragments, 0);
  EXPECT_FALSE(final_mark.ToString().empty());
}

TEST(ObsEngineTest, WatermarkBatchGranularity) {
  // Batched feeding checks the progress trigger once per batch: a watermark
  // fires at the first batch boundary at or past each threshold, a batch
  // jumping several thresholds fires one collapsed callback, and the run's
  // final totals equal the per-event run's exactly (DESIGN.md §11).
  ExprPtr query = MustParseRpeq("_*.book.title");  // no sweep cuts
  std::vector<StreamEvent> events = Events(kDoc);
  const int64_t kEvery = 5;
  const size_t kBatch = 4;  // does not divide kEvery: boundaries drift

  CountingResultSink ref_sink;
  EngineOptions ref_options;
  ref_options.progress.every_events = kEvery;
  ref_options.progress.callback = [](const Watermark&) {};
  SpexEngine ref(*query, &ref_sink, ref_options);
  for (const StreamEvent& e : events) ref.OnEvent(e);
  const Watermark ref_final = ref.CurrentWatermark();

  CountingResultSink sink;
  EngineOptions options;
  std::vector<int64_t> fired;
  options.progress.every_events = kEvery;
  options.progress.callback = [&fired](const Watermark& w) {
    fired.push_back(w.events);
  };
  SpexEngine engine(*query, &sink, options);
  for (size_t i = 0; i < events.size(); i += kBatch) {
    engine.OnEventBatch(events.data() + i,
                        std::min(kBatch, events.size() - i));
  }

  // Expected sequence: re-arm the threshold past the count at every batch
  // boundary, exactly as MaybeEmitProgress does.
  std::vector<int64_t> expected;
  int64_t next = kEvery;
  for (size_t fed = 0; fed < events.size();) {
    fed += std::min(kBatch, events.size() - fed);
    if (static_cast<int64_t>(fed) >= next) {
      expected.push_back(static_cast<int64_t>(fed));
      while (static_cast<int64_t>(fed) >= next) next += kEvery;
    }
  }
  EXPECT_EQ(fired, expected);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front() % static_cast<int64_t>(kBatch), 0);

  const Watermark final_mark = engine.CurrentWatermark();
  EXPECT_EQ(final_mark.events, ref_final.events);
  EXPECT_EQ(final_mark.results, ref_final.results);
  EXPECT_EQ(final_mark.pending_fragments, ref_final.pending_fragments);
  EXPECT_EQ(final_mark.buffered_events_peak, ref_final.buffered_events_peak);
  EXPECT_EQ(sink.results(), ref_sink.results());

  // One batch spanning several thresholds → one collapsed callback.
  std::vector<int64_t> jump_fired;
  EngineOptions jump;
  jump.progress.every_events = 3;
  jump.progress.callback = [&jump_fired](const Watermark& w) {
    jump_fired.push_back(w.events);
  };
  CountingResultSink jump_sink;
  SpexEngine jumper(*query, &jump_sink, jump);
  const size_t jump_count = std::min<size_t>(10, events.size());
  jumper.OnEventBatch(events.data(), jump_count);
  ASSERT_EQ(jump_fired.size(), 1u);  // thresholds 3, 6, 9 collapse
  EXPECT_EQ(jump_fired[0], static_cast<int64_t>(jump_count));
}

TEST(ObsEngineTest, MultiQueryRegistryLabelsPerQueryOutputs) {
  MultiQueryEngine mq;
  CountingResultSink sink_a, sink_b;
  mq.AddQuery("_*.book[author].title", &sink_a);
  mq.AddQuery("_*.book[author].author", &sink_b);
  mq.Finalize();
  for (const StreamEvent& e : Events(kDoc)) mq.OnEvent(e);
  MetricsSnapshot snap = mq.metrics().Collect();
  EXPECT_EQ(snap.Value("spex_engine_events"), mq.events_processed());
  // One labelled family instance per query output.
  int outputs = 0;
  for (const MetricSample& s : snap.samples) {
    if (s.name != "spex_output_candidates_emitted") continue;
    ASSERT_EQ(s.labels.size(), 1u);
    EXPECT_EQ(s.labels[0].first, "query");
    ++outputs;
  }
  EXPECT_EQ(outputs, 2);
  EXPECT_EQ(snap.SumAll("spex_output_candidates_emitted"),
            sink_a.results() + sink_b.results());
  EXPECT_GT(snap.SumAll("spex_transducer_messages_in"), 0);
}

// ---------------------------------------------------------------------------
// Histogram quantiles.  These pin the boundary semantics documented on
// HistogramQuantileFromBuckets; the admin plane's /stats endpoint and the
// spexserve exit summary both rely on them.

TEST(QuantileTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(QuantileTest, SingleObservationInterpolatesWithinBucket) {
  Histogram h;
  h.Observe(5);  // bucket 3: range [4, 7]
  // Rank q*count = 0.5 of one observation, spread uniformly over [4, 7]:
  // lower + 0.5 * (upper - lower + ... ) — pinned to the implementation's
  // linear interpolation midpoint.
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, static_cast<double>(Histogram::BucketLowerBound(3)) - 1.0);
  EXPECT_LE(p50, static_cast<double>(Histogram::BucketUpperBound(3)));
  EXPECT_DOUBLE_EQ(p50, 4.5);
}

TEST(QuantileTest, ZeroAndOneHitBucketBounds) {
  Histogram h;
  h.Observe(9);    // bucket 4: [8, 15]
  h.Observe(100);  // bucket 7: [64, 127]
  h.Observe(70);   // bucket 7
  // Quantile(0) = lower bound of the first non-empty bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 8.0);
  // Quantile(1) = upper bound of the last non-empty bucket, clamped to the
  // observed max (100 < 127).
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  // Out-of-range q is clamped, not undefined.
  EXPECT_DOUBLE_EQ(h.Quantile(-3.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(7.0), h.Quantile(1.0));
}

TEST(QuantileTest, MedianLandsInMiddleBucket) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(2);    // bucket 2: [2, 3]
  for (int i = 0; i < 100; ++i) h.Observe(40);   // bucket 6: [32, 63]
  for (int i = 0; i < 100; ++i) h.Observe(500);  // bucket 9: [256, 511]
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 63.0);
  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 256.0);
  EXPECT_LE(p99, 500.0);  // clamped to observed max
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.25), p50);
  EXPECT_LE(p50, h.Quantile(0.95));
}

TEST(QuantileTest, SampleQuantileMatchesLiveHistogram) {
  MetricRegistry registry;
  Histogram* h = registry.AddHistogram("lat");
  for (int v : {1, 3, 5, 9, 17, 33, 65, 200}) h->Observe(v);
  MetricsSnapshot snap = registry.Collect();
  const MetricSample* s = snap.Find("lat");
  ASSERT_NE(s, nullptr);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s->Quantile(q), h->Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileTest, QuantileAllMergesLabelledSamples) {
  MetricRegistry registry;
  Histogram* a = registry.AddHistogram("wait", {{"worker", "0"}});
  Histogram* b = registry.AddHistogram("wait", {{"worker", "1"}});
  for (int i = 0; i < 50; ++i) a->Observe(4);
  for (int i = 0; i < 50; ++i) b->Observe(600);
  MetricsSnapshot snap = registry.Collect();
  // Merged median must sit between the two per-worker medians.
  const double p50 = snap.QuantileAll("wait", 0.5);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 600.0);
  EXPECT_DOUBLE_EQ(snap.QuantileAll("wait", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(snap.QuantileAll("wait", 1.0), 600.0);
  EXPECT_EQ(snap.QuantileAll("missing", 0.5), 0.0);
}

// ---------------------------------------------------------------------------
// AtomicHistogram: the pool's thread-safe latency instrument.

TEST(MetricsTest, AtomicHistogramMatchesHistogramShape) {
  obs::AtomicHistogram ah;
  Histogram h;
  for (int v : {0, 1, 2, 3, 4, 7, 8, 1000, -5}) {
    ah.Observe(v);
    h.Observe(v);
  }
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(ah.bucket(i), h.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(ah.sum(), h.sum());
  EXPECT_EQ(ah.max(), h.max());
}

TEST(MetricsTest, AtomicHistogramCollectDerivesCountFromBuckets) {
  MetricRegistry registry;
  obs::AtomicHistogram* ah = registry.AddAtomicHistogram("lat");
  for (int i = 0; i < 17; ++i) ah->Observe(i);
  MetricsSnapshot snap = registry.Collect();
  const MetricSample* s = snap.Find("lat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, MetricType::kHistogram);
  int64_t bucket_sum = 0;
  for (int64_t b : s->buckets) bucket_sum += b;
  // No stored count: the snapshot's count is definitionally the bucket sum,
  // so a concurrent scrape can never see a torn count/bucket pair.
  EXPECT_EQ(s->count, bucket_sum);
  EXPECT_EQ(s->count, 17);
  EXPECT_EQ(s->max, 16);
}

TEST(MetricsTest, CallbackCounterReadsAtCollectTime) {
  MetricRegistry registry;
  std::atomic<int64_t> total{5};
  registry.AddCallbackCounter("derived_total", {},
                              [&total] { return total.load(); });
  MetricsSnapshot snap = registry.Collect();
  const MetricSample* s = snap.Find("derived_total");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, MetricType::kCounter);
  EXPECT_EQ(s->value, 5);
  total = 42;
  EXPECT_EQ(registry.Collect().Value("derived_total"), 42);
}

// ---------------------------------------------------------------------------
// Prometheus exposition conformance: a scrape-side parse-back that enforces
// the text-format rules an actual Prometheus server cares about.

TEST(MetricsTest, PrometheusExpositionConformance) {
  MetricRegistry registry;
  registry.SetHelp("spex_events_total", "Total events\nacross \\ \"runs\".");
  registry.AddCounter("spex_events_total", {{"worker", "0"}})->Increment(10);
  registry.AddCounter("spex_events_total", {{"worker", "1"}})->Increment(32);
  registry.SetHelp("spex_lat", "Latency in us.");
  registry.AddHistogram("spex_lat", {{"worker", "0"}})->Observe(3);
  registry.AddHistogram("spex_lat", {{"worker", "1"}})->Observe(5);
  // Label values exercising every escape: backslash, quote, newline.
  registry.AddGauge("spex_g", {{"path", "a\\b\"c\nd"}})->Set(1);
  std::string text = registry.Collect().ToPrometheusText();

  std::map<std::string, int> help_lines, type_lines;
  std::map<std::string, std::string> type_of;
  std::istringstream in(text);
  std::string line;
  bool saw_escaped_label = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      std::string rest = line.substr(7);
      std::string family = rest.substr(0, rest.find(' '));
      ++help_lines[family];
      // HELP text escapes: backslash and newline (not quotes).
      std::string help_text = rest.substr(rest.find(' ') + 1);
      EXPECT_EQ(help_text.find('\n'), std::string::npos);
      if (family == "spex_events_total") {
        EXPECT_NE(help_text.find("\\n"), std::string::npos);
        EXPECT_NE(help_text.find("\\\\"), std::string::npos);
      }
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::string rest = line.substr(7);
      std::string family = rest.substr(0, rest.find(' '));
      ++type_lines[family];
      type_of[family] = rest.substr(rest.find(' ') + 1);
      continue;
    }
    // Sample line: name{labels} value.  Label values must escape \, ", \n.
    if (line.find("spex_g{") == 0) {
      EXPECT_NE(line.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos)
          << line;
      saw_escaped_label = true;
    }
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_TRUE(saw_escaped_label);
  // Exactly one # HELP and one # TYPE per family, even with two labelled
  // instances of the family.
  EXPECT_EQ(help_lines["spex_events_total"], 1);
  EXPECT_EQ(type_lines["spex_events_total"], 1);
  EXPECT_EQ(type_lines["spex_lat"], 1);
  EXPECT_EQ(type_of["spex_events_total"], "counter");
  EXPECT_EQ(type_of["spex_lat"], "histogram");
  EXPECT_EQ(type_of["spex_g"], "gauge");

  // Histogram conformance per labelled instance: cumulative buckets ending
  // at +Inf == _count.
  for (const char* worker : {"0", "1"}) {
    std::string inf_line = "spex_lat_bucket{worker=\"" + std::string(worker) +
                           "\",le=\"+Inf\"} 1";
    std::string count_line =
        "spex_lat_count{worker=\"" + std::string(worker) + "\"} 1";
    EXPECT_NE(text.find(inf_line), std::string::npos) << text;
    EXPECT_NE(text.find(count_line), std::string::npos) << text;
  }
}

// ---------------------------------------------------------------------------
// Worker-stamped trace tracks: each pool worker records into its own tid
// range and merges into one Chrome trace with per-worker process groups.

TEST(TraceTest, TidBaseStampsWorkerTracks) {
  TraceRecorder recorder(16);
  recorder.SetTidBase(2 * TraceRecorder::kWorkerTidStride);
  recorder.SetProcessName("spex worker 2");
  recorder.SetTrackName(0, "w2/stream");
  recorder.SetTrackName(3, "w2/CH(a)");
  int doc = recorder.InternName("document");
  recorder.RecordSpan(0, doc, 1000, 5000);
  recorder.RecordSpan(3, doc, 2000, 3000);
  JsonValue root = MustParseJson(recorder.ToChromeJson());
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  const double base = 2 * TraceRecorder::kWorkerTidStride;
  bool saw_process_name = false;
  int thread_names = 0, spans = 0;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Get("ph")->str;
    if (ph == "M" && e.Get("name")->str == "process_name") {
      saw_process_name = true;
      EXPECT_EQ(e.Get("tid")->number, base);
      EXPECT_EQ(e.Get("args")->Get("name")->str, "spex worker 2");
    } else if (ph == "M" && e.Get("name")->str == "thread_name") {
      ++thread_names;
      // Track tids are shifted into the worker's range.
      EXPECT_GE(e.Get("tid")->number, base);
      EXPECT_LT(e.Get("tid")->number,
                base + TraceRecorder::kWorkerTidStride);
    } else if (ph == "X") {
      ++spans;
      EXPECT_GE(e.Get("tid")->number, base);
      EXPECT_LT(e.Get("tid")->number,
                base + TraceRecorder::kWorkerTidStride);
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_EQ(thread_names, 2);
  EXPECT_EQ(spans, 2);
}

TEST(TraceTest, AppendChromeRecordsMergesWithOffset) {
  TraceRecorder a(8), b(8);
  a.SetTidBase(0);
  b.SetTidBase(TraceRecorder::kWorkerTidStride);
  int name_a = a.InternName("s");
  int name_b = b.InternName("s");
  a.RecordSpan(0, name_a, 0, 100);
  b.RecordSpan(0, name_b, 0, 100);
  std::string out = "[";
  bool first = true;
  a.AppendChromeRecords(&out, &first, /*ts_offset_ns=*/0);
  b.AppendChromeRecords(&out, &first, /*ts_offset_ns=*/50'000);
  out += "]";
  JsonValue root = MustParseJson(out);
  ASSERT_EQ(root.kind, JsonValue::kArray);
  std::vector<double> ts, tids;
  for (const JsonValue& e : root.array) {
    if (e.Get("ph")->str != "X") continue;
    ts.push_back(e.Get("ts")->number);
    tids.push_back(e.Get("tid")->number);
  }
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts[0], 0.0);
  EXPECT_DOUBLE_EQ(ts[1], 50.0);  // rebased by 50 us onto the merge epoch
  EXPECT_DOUBLE_EQ(tids[0], 0.0);
  EXPECT_DOUBLE_EQ(tids[1], TraceRecorder::kWorkerTidStride);
}

// ---------------------------------------------------------------------------
// Worker-stamped recorders (the capture hub's): the tid base, process name
// and track prefix put every track of an attached run in the worker's range.

TEST(ObsEngineTest, WorkerStampedRecorderPrefixesTracks) {
  ExprPtr query = MustParseRpeq("_*.title");
  CountingResultSink sink;
  SpexEngine engine(*query, &sink);
  TraceRecorder recorder;
  recorder.SetTidBase(1 * TraceRecorder::kWorkerTidStride);
  recorder.SetProcessName("spex worker 1");
  recorder.SetTrackPrefix("w1/");
  engine.AttachTrace(&recorder);
  for (const StreamEvent& e : Events(kDoc)) engine.OnEvent(e);
  std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("spex worker 1"), std::string::npos);
  EXPECT_NE(json.find("w1/stream"), std::string::npos);
  // Every event lives in worker 1's tid range.
  JsonValue root = MustParseJson(json);
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const JsonValue& e : events->array) {
    EXPECT_GE(e.Get("tid")->number, TraceRecorder::kWorkerTidStride);
    EXPECT_LT(e.Get("tid")->number, 2 * TraceRecorder::kWorkerTidStride);
  }
}

}  // namespace
}  // namespace spex
