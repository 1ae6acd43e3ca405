// Always-on statistical sampling profiler (DESIGN.md §13).
//
// The full EXPLAIN/PROFILE instrumentation (obs/profile.h) brackets every
// node call of the network's sweep with clock reads — precise, but a
// multiple of the unattached cost, so serving runs leave it off and
// attribution goes dark.  This controller closes the gap with batch-granular
// sampling: engines that hold a SamplingProfiler draw once per delivered
// event batch, and only a sampled batch (1 of every `period`) has the node
// calls of its sweeps timed into a private ProfileAccumulator — the same
// sweeps an unsampled batch takes.  Per-node self-time *shares* estimated
// from sampled batches converge on the full profile's shares (batches are
// drawn on a fixed stride, so every phase of a stream is represented),
// while the cost is the instrumentation tax divided by the period, gated at
// ≤2% by the bench (see Options::period for the default).
//
// The "ticker" is a deterministic stride, not a wall-clock thread: each
// worker thread counts the batches it delivers and samples every Nth one.
// That keeps the hot-path draw at one thread-local increment plus one
// relaxed load (no atomics on the unsampled path), makes tests and benches
// reproducible, and still spreads samples across all sessions a worker
// serves in proportion to the batches they deliver — which is exactly the
// weighting a time-share estimator wants.
//
// Threading: ShouldSample may be called from any number of threads; the
// period is runtime-mutable (the admin plane flips it) through a relaxed
// atomic.  The stride counter is thread-local and deliberately shared by
// all controllers on a thread — interleaving draws across controllers only
// dithers the phase, never the rate.

#ifndef SPEX_OBS_SAMPLING_PROFILER_H_
#define SPEX_OBS_SAMPLING_PROFILER_H_

#include <atomic>
#include <cstdint>

namespace spex {
namespace obs {

class SamplingProfiler {
 public:
  struct Options {
    // Sample 1 of every `period` delivered batches; <= 0 disables sampling
    // (every draw says no at the cost of one relaxed load).  The default
    // keeps the instrumented fraction of *events* at 1/256 (batches are
    // ~64 events), bounding overhead well under the 2% budget while still
    // drawing hundreds of samples per second at serving rates.
    int period = 256;
  };

  SamplingProfiler() : period_(Options{}.period) {}
  explicit SamplingProfiler(Options options) : period_(options.period) {}

  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  bool enabled() const {
    return period_.load(std::memory_order_relaxed) > 0;
  }
  int period() const { return period_.load(std::memory_order_relaxed); }
  // Runtime-mutable (admin plane); takes effect on the next draw.
  void set_period(int period) {
    period_.store(period, std::memory_order_relaxed);
  }

  // One draw per delivered event batch.  True on the sampling stride: the
  // caller times that batch's sweeps.
  bool ShouldSample() {
    const int period = period_.load(std::memory_order_relaxed);
    if (period <= 0) return false;
    thread_local uint64_t stride = 0;
    if (++stride % static_cast<uint64_t>(period) != 0) return false;
    sampled_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Batches sampled across all threads since construction.
  int64_t sampled_batches() const {
    return sampled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> period_;
  std::atomic<int64_t> sampled_{0};
};

}  // namespace obs
}  // namespace spex

#endif  // SPEX_OBS_SAMPLING_PROFILER_H_
