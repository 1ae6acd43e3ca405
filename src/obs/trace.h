// Bounded trace recorder with Chrome trace-event export.
//
// Captures per-event and per-transducer spans of a streaming run into a
// fixed-capacity ring buffer (old spans are overwritten, so memory stays
// bounded however long the stream runs — the same discipline as the engine
// itself) and exports them as Chrome trace-event JSON, loadable in
// chrome://tracing and Perfetto.
//
// Track model: pid is always 1; each tid is one track.  The SPEX engine maps
// tid 0 to the document stream (one span per sweep of the network) and tid
// i+1 to network node i (one span per node call of the sweep, inside the
// enclosing sweep's span).  Track display names are registered with
// SetTrackName and exported as thread_name metadata.
//
// Multi-worker runs (the engine pool): each worker's recorder stamps its
// worker index into the tid space via SetTidBase(worker * kWorkerTidStride),
// so merged traces keep one distinct track group per worker instead of
// interleaving every worker's node i into a single flame graph; a
// process_name metadata record (SetProcessName) labels the group and a
// track-name prefix (SetTrackPrefix, e.g. "w1/") its tracks.  Merging
// is AppendChromeRecords with a per-recorder timestamp offset that rebases
// each recorder's private clock origin onto the merger's epoch.
//
// Span names are interned once (InternName) so recording a span is a ring
// store plus two clock reads — cheap enough to trace every sweep, and
// entirely absent from the engine's hot path when no recorder is attached.

#ifndef SPEX_OBS_TRACE_H_
#define SPEX_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spex {
namespace obs {

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;
  // Tid spacing between pool workers: tid = worker * stride + node track.
  // Far above any realistic network degree (§V degree is linear in the
  // query size), so worker track ranges never collide.
  static constexpr int32_t kWorkerTidStride = 4096;

  // One recorded trace event.  `dur_or_value_ns` is the duration for spans
  // ('X') and the sampled value for counter events ('C').
  struct Event {
    char phase = 'X';  // 'X' complete span, 'C' counter sample, 'i' instant
    int32_t tid = 0;
    int32_t name_id = 0;
    int64_t ts_ns = 0;
    int64_t dur_or_value_ns = 0;
  };

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Nanoseconds since recorder construction (monotonic).
  int64_t NowNs() const;

  // Interns `name`, returning a stable id for Record* calls.
  int InternName(std::string_view name);
  const std::string& name(int id) const { return names_[static_cast<size_t>(id)]; }

  // Shifts every subsequently recorded tid (Record* and SetTrackName) by
  // `base` — the multi-worker stamp described above.  Call before any
  // recording; typically base = worker * kWorkerTidStride.
  void SetTidBase(int32_t base) { tid_base_ = base; }
  int32_t tid_base() const { return tid_base_; }

  // Display name for track `tid` (thread_name metadata in the export),
  // after the track prefix.
  void SetTrackName(int tid, std::string_view name);
  // Prepended to every subsequently registered track name — the
  // multi-worker stamp's name half, set alongside SetTidBase.
  void SetTrackPrefix(std::string_view prefix) { track_prefix_ = prefix; }
  // Display name of this recorder's process group (process_name metadata in
  // the export; empty = no record emitted).
  void SetProcessName(std::string_view name) { process_name_ = name; }

  // Clock origin (NowNs() == 0).  Mergers rebase per-recorder timestamps
  // onto a common epoch from this.
  std::chrono::steady_clock::time_point origin() const { return origin_; }

  void RecordSpan(int tid, int name_id, int64_t start_ns, int64_t end_ns) {
    Push({'X', tid + tid_base_, name_id, start_ns, end_ns - start_ns});
  }
  void RecordCounter(int name_id, int64_t ts_ns, int64_t value) {
    Push({'C', tid_base_, name_id, ts_ns, value});
  }
  void RecordInstant(int tid, int name_id, int64_t ts_ns) {
    Push({'i', tid + tid_base_, name_id, ts_ns, 0});
  }

  // Events currently held, oldest first.
  std::vector<Event> Events() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  // Total events ever recorded; `recorded() - size()` were overwritten.
  int64_t recorded() const { return recorded_; }
  int64_t dropped() const { return recorded_ - static_cast<int64_t>(size()); }

  // Chrome trace-event JSON ({"traceEvents": [...], ...}); timestamps in
  // fractional microseconds, events in chronological order, one thread_name
  // metadata record per registered track (plus process_name when set).
  std::string ToChromeJson() const;

  // Appends this recorder's metadata + event records (the objects inside
  // "traceEvents") to `out`, comma-separated, with every timestamp shifted
  // by `ts_offset_ns`.  `first` tracks whether a comma is due and is shared
  // across recorders so a merger can concatenate several calls into one
  // valid array (see runtime/admin_server.h's capture hub).
  void AppendChromeRecords(std::string* out, bool* first,
                           int64_t ts_offset_ns) const;

 private:
  void Push(Event e) {
    ring_[static_cast<size_t>(recorded_) % capacity_] = e;
    ++recorded_;
  }

  std::chrono::steady_clock::time_point origin_;
  size_t capacity_;
  std::vector<Event> ring_;
  int64_t recorded_ = 0;
  int32_t tid_base_ = 0;
  std::vector<std::string> names_;
  std::vector<std::pair<int, std::string>> track_names_;
  std::string track_prefix_;
  std::string process_name_;
};

}  // namespace obs
}  // namespace spex

#endif  // SPEX_OBS_TRACE_H_
