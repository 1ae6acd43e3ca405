#include "runtime/capture_hub.h"

#include <utility>

#include "spex/run_core.h"

namespace spex {

CaptureHub::CaptureHub()
    : epoch_(std::chrono::steady_clock::now()),
      trace_until_(epoch_),
      profile_until_(epoch_) {}

void CaptureHub::ArmTrace(int64_t ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  std::lock_guard<std::mutex> lock(mu_);
  if (until > trace_until_) trace_until_ = until;
  trace_records_.clear();
  trace_sessions_ = 0;
  armed_.store(true, std::memory_order_release);
}

void CaptureHub::ArmProfile(int64_t ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  std::lock_guard<std::mutex> lock(mu_);
  if (until > profile_until_) profile_until_ = until;
  profile_reports_.clear();
  armed_.store(true, std::memory_order_release);
}

std::string CaptureHub::TraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out += trace_records_;
  out += "\n]}\n";
  return out;
}

std::string CaptureHub::ProfileJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"profiles\": [\n";
  bool first = true;
  for (const std::string& report : profile_reports_) {
    if (!first) out += ",\n";
    first = false;
    out += report;
  }
  out += "\n]}\n";
  return out;
}

int CaptureHub::trace_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_sessions_;
}

int CaptureHub::profile_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(profile_reports_.size());
}

void CaptureHub::Sync(int worker, const std::string& query, RunCore* engine,
                      Attachment* attachment, bool ending) {
  const auto now = std::chrono::steady_clock::now();
  bool trace_open = false;
  bool profile_open = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    trace_open = now < trace_until_;
    profile_open = now < profile_until_;
    if (!trace_open && !profile_open) {
      armed_.store(false, std::memory_order_release);
    }
  }
  trace_open = trace_open && !ending;
  profile_open = profile_open && !ending;

  // Attach what an armed window asks for.
  if (trace_open && attachment->trace == nullptr) {
    attachment->trace = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder* recorder = attachment->trace.get();
    recorder->SetTidBase(worker * obs::TraceRecorder::kWorkerTidStride);
    recorder->SetProcessName("spex worker " + std::to_string(worker));
    recorder->SetTrackPrefix("w" + std::to_string(worker) + "/");
    engine->AttachTrace(recorder);
  }
  if (profile_open && attachment->profile == nullptr) {
    attachment->profile = std::make_unique<obs::ProfileAccumulator>(
        engine->network().node_count());
    engine->AttachProfiler(attachment->profile.get());
  }

  // Detach and merge out what a closed window no longer asks for; the
  // rendering happens outside the hub's lock.
  std::string records;
  if (!trace_open && attachment->trace != nullptr) {
    engine->AttachTrace(nullptr);
    const int64_t offset_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            attachment->trace->origin() - epoch_)
            .count();
    bool first = true;
    attachment->trace->AppendChromeRecords(&records, &first, offset_ns);
    attachment->trace.reset();
  }
  std::string report_json;
  if (!profile_open && attachment->profile != nullptr) {
    obs::ProfileReport report = engine->Profile();
    engine->AttachProfiler(nullptr);
    attachment->profile.reset();
    report.query = query;
    report_json = report.ToJson();
  }
  if (records.empty() && report_json.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!records.empty()) {
    if (!trace_records_.empty()) trace_records_ += ",\n";
    trace_records_ += records;
    ++trace_sessions_;
  }
  if (!report_json.empty()) profile_reports_.push_back(std::move(report_json));
}

}  // namespace spex
