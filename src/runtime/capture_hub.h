// Capture windows behind the admin plane's /trace and /profile endpoints
// (DESIGN.md §12).
//
// Observation attaches to live runs (RunCore::AttachTrace / AttachProfiler),
// so a window observes whatever the pool's sessions do while it is armed —
// sessions already streaming when it opens included.  The pool owns one hub;
// its workers call Sync at the start of each input task of a live session
// and when the session ends:
//   * while a trace window is armed, the session's engine gets a recorder
//     the hub builds and stamps for the worker (tid base, process name and
//     "w<k>/" track prefix); while a profile window is armed, a profile
//     accumulator sized for the session's network;
//   * once the window has closed, or the session ends, the hub detaches
//     them and merges them out: trace records rebased from each recorder's
//     private clock origin onto the hub's epoch (so merged tracks align on
//     one timeline), one PROFILE report per session.
// A window armed mid-document thus traces the rest of that document.  With
// no window armed, a session's check costs one atomic load (armed()).
//
// Attaching never changes how events are delivered, so captured sessions'
// results are byte-identical to uncaptured ones.

#ifndef SPEX_RUNTIME_CAPTURE_HUB_H_
#define SPEX_RUNTIME_CAPTURE_HUB_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "obs/trace.h"

namespace spex {

class RunCore;

class CaptureHub {
 public:
  // What the hub attached to one session's engine; owned by the session
  // (worker-thread-only), empty while nothing is attached.
  struct Attachment {
    std::unique_ptr<obs::TraceRecorder> trace;
    std::unique_ptr<obs::ProfileAccumulator> profile;

    bool empty() const { return trace == nullptr && profile == nullptr; }
  };

  CaptureHub();

  CaptureHub(const CaptureHub&) = delete;
  CaptureHub& operator=(const CaptureHub&) = delete;

  // Arms the respective window for `ms` milliseconds from now (extends, if
  // already armed) and clears previously drained capture state.
  void ArmTrace(int64_t ms);
  void ArmProfile(int64_t ms);

  // Merged Chrome trace JSON / JSON array of profile reports accumulated
  // since arming.  Draining leaves the data in place (a second scrape of a
  // window sees the same capture) — the next Arm* clears it.
  std::string TraceJson() const;
  std::string ProfileJson() const;
  // Sessions merged into the current trace / profile capture.
  int trace_sessions() const;
  int profile_sessions() const;

  // False once every window has closed and a Sync noticed: the whole cost
  // of a session's check when nothing is armed.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Worker side, between two batches of `engine` (pool worker `worker`,
  // session label `query`): attaches what an armed window asks for, and
  // detaches and merges what a closed window — or, with `ending`, any
  // window — no longer does.
  void Sync(int worker, const std::string& query, RunCore* engine,
            Attachment* attachment, bool ending);

 private:
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> armed_{false};

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point trace_until_;    // guarded by mu_
  std::chrono::steady_clock::time_point profile_until_;  // guarded by mu_
  std::string trace_records_;                            // guarded by mu_
  int trace_sessions_ = 0;                               // guarded by mu_
  std::vector<std::string> profile_reports_;             // guarded by mu_
};

}  // namespace spex

#endif  // SPEX_RUNTIME_CAPTURE_HUB_H_
