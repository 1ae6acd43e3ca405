// Continuous-service monitoring over an *unbounded* stream — the paper's
// second §I motivation (stock exchange / measurement feeds) and the §VI
// stability experiment ("application-generated infinite streams ... stable
// in cases where the depth of the tree conveyed in the stream is bounded").
//
// An endless feed of <tick> records is evaluated against an alert query;
// matches are acted upon the moment the fragment completes, and the process
// reports its (flat) resource usage as the stream grows.
//
//   $ ./stream_monitor [--ticks=N]

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "spex/spex.h"

namespace {

using spex::StreamEvent;

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Acts on every alert as soon as its fragment is complete: progressive,
// per-record delivery with no end-of-document in sight.
class AlertHandler : public spex::ResultSink {
 public:
  void OnResultBegin(int64_t) override { current_.clear(); }
  void OnResultEvent(const StreamEvent& event) override {
    if (event.kind == spex::EventKind::kText) current_ += event.text;
  }
  void OnResultEnd(int64_t) override {
    ++alerts_;
    if (alerts_ <= 3) {  // show the first few
      std::printf("  ALERT #%lld: price=%s\n",
                  static_cast<long long>(alerts_), current_.c_str());
    }
  }
  int64_t alerts() const { return alerts_; }

 private:
  std::string current_;
  int64_t alerts_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int64_t ticks = 2000000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--ticks=", 8) == 0) {
      ticks = std::atoll(argv[i] + 8);
    }
  }

  // Alert on the price of any tick that carries an <alert/> marker.
  spex::ExprPtr query = spex::MustParseRpeq("feed.tick[alert].price");
  AlertHandler handler;

  // The engine's own watermark API does the monitoring: the progress
  // callback fires from inside OnEvent and reports the same fields as
  // `spexquery --progress` (events, rate, buffered fragments, live formula
  // nodes, ...).  Each line is flat in the number of ticks — the §VI
  // stability claim, now read off the metrics the engine publishes anyway.
  spex::EngineOptions options;
  options.progress.every_events = 400000;
  options.progress.callback = [](const spex::Watermark& w) {
    std::printf("progress: %s rss=%.1fMB\n", w.ToString().c_str(),
                PeakRssMb());
  };
  spex::SpexEngine engine(*query, &handler, options);

  std::printf("monitoring %lld ticks with query %s\n",
              static_cast<long long>(ticks), query->ToString().c_str());

  spex::EndlessEventSource source(2026);
  spex::FunctionEventSink feed(
      [&](const StreamEvent& e) { engine.OnEvent(e); });
  source.Begin(&feed);

  for (int64_t i = 1; i <= ticks; ++i) {
    source.NextRecord(&feed);
  }
  spex::Watermark final_mark = engine.CurrentWatermark();
  std::printf("final: %s alerts=%lld\n", final_mark.ToString().c_str(),
              static_cast<long long>(handler.alerts()));
  // Note: the document is never closed — the feed is infinite.  Every
  // number above is flat in the number of ticks: the engine's state depends
  // only on the (bounded) depth of the tree conveyed in the stream.
  std::printf("done; the stream could continue indefinitely.\n");
  return 0;
}
