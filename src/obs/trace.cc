#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace spex {
namespace obs {

TraceRecorder::TraceRecorder(size_t capacity)
    : origin_(std::chrono::steady_clock::now()),
      capacity_(capacity == 0 ? 1 : capacity),
      ring_(capacity_) {}

int64_t TraceRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int TraceRecorder::InternName(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

void TraceRecorder::SetTrackName(int tid, std::string_view name) {
  tid += tid_base_;
  std::string full = track_prefix_ + std::string(name);
  for (auto& [id, existing] : track_names_) {
    if (id == tid) {
      existing = std::move(full);
      return;
    }
  }
  track_names_.emplace_back(tid, std::move(full));
}

size_t TraceRecorder::size() const {
  return std::min(static_cast<size_t>(recorded_), capacity_);
}

std::vector<TraceRecorder::Event> TraceRecorder::Events() const {
  std::vector<Event> out;
  const size_t n = size();
  out.reserve(n);
  const size_t start =
      static_cast<size_t>(recorded_) > capacity_
          ? static_cast<size_t>(recorded_) % capacity_
          : 0;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void TraceRecorder::AppendChromeRecords(std::string* out, bool* first,
                                        int64_t ts_offset_ns) const {
  std::vector<Event> events = Events();
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });

  auto append = [out, first](const std::string& record) {
    if (!*first) *out += ",\n";
    *out += record;
    *first = false;
  };

  if (!process_name_.empty()) {
    append("  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(tid_base_) + ", \"args\": {\"name\": \"" +
           EscapeJson(process_name_) + "\"}}");
  }
  for (const auto& [tid, name] : track_names_) {
    append("  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"" +
           EscapeJson(name) + "\"}}");
  }

  char buf[256];
  for (const Event& e : events) {
    const std::string& name = names_[static_cast<size_t>(e.name_id)];
    const double ts_us =
        static_cast<double>(e.ts_ns + ts_offset_ns) / 1000.0;
    switch (e.phase) {
      case 'X':
        std::snprintf(buf, sizeof buf,
                      "  {\"name\": \"%s\", \"cat\": \"spex\", \"ph\": \"X\", "
                      "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                      EscapeJson(name).c_str(), e.tid, ts_us,
                      static_cast<double>(e.dur_or_value_ns) / 1000.0);
        break;
      case 'C':
        std::snprintf(
            buf, sizeof buf,
            "  {\"name\": \"%s\", \"cat\": \"spex\", \"ph\": \"C\", "
            "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"args\": "
            "{\"value\": %lld}}",
            EscapeJson(name).c_str(), e.tid, ts_us,
            static_cast<long long>(e.dur_or_value_ns));
        break;
      default:
        std::snprintf(buf, sizeof buf,
                      "  {\"name\": \"%s\", \"cat\": \"spex\", \"ph\": \"i\", "
                      "\"s\": \"t\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f}",
                      EscapeJson(name).c_str(), e.tid, ts_us);
        break;
    }
    append(buf);
  }
}

std::string TraceRecorder::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  AppendChromeRecords(&out, &first, 0);
  out += "\n]}\n";
  return out;
}

}  // namespace obs
}  // namespace spex
