// The benchmark's own arithmetic: result digests for the DOM-oracle gate,
// the tail-percentile rule, and the timed-window accounting.  Kept free of
// I/O so bench_math_test.cc can pin every rule down.

#ifndef WIREBENCH_BENCH_MATH_H_
#define WIREBENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wirebench {

// --- Result digests ------------------------------------------------------
//
// A document's results are compared by count and by a digest that is
// order-sensitive within a slot (fragments arrive in document order) and
// order-insensitive across slots (a server may interleave slots).

class ResultDigest {
 public:
  explicit ResultDigest(size_t slots = 1);

  // False (and the digest marked bad) when `slot` is out of range.
  bool Add(uint32_t slot, std::string_view fragment);

  uint64_t count() const { return count_; }
  bool bad_slot() const { return bad_slot_; }
  // Folds every slot's running digest into one value.
  uint64_t Fold() const;

 private:
  std::vector<uint64_t> slot_hash_;
  std::vector<uint64_t> slot_count_;
  uint64_t count_ = 0;
  bool bad_slot_ = false;
};

// What the oracle says one document must produce.
struct Expected {
  uint64_t count = 0;
  uint64_t fold = 0;
};

Expected ExpectedFrom(const ResultDigest& digest);

// Verdict on one document as the wire delivered it.  `done` is true when the
// terminal frame was DOC_DONE (false: ERROR frame or transport failure).
// Returns an empty string when the document matches the oracle, otherwise
// the reason it does not.
std::string CheckDocument(const Expected& expected, const ResultDigest& got,
                          bool done, uint64_t done_certain,
                          uint64_t done_total);

// --- Percentiles ---------------------------------------------------------

struct LatencySummary {
  size_t samples = 0;
  double p50 = 0;
  // The highest percentile with at least 10 samples beyond it (nearest
  // rank): for n > 10 samples the value of rank n - 10.  With n <= 10 no
  // percentile qualifies; the maximum is reported and tail_pct is 100.
  double tail = 0;
  double tail_pct = 0;
};

LatencySummary Summarize(std::vector<double> samples);

// --- Window accounting ---------------------------------------------------

// One document the generator sent, with times in seconds on one clock.
struct DocRecord {
  bool warmup = false;
  double start_s = 0;  // first STREAM byte written
  double end_s = -1;   // terminal frame read (-1: never)
  double first_result_s = -1;  // first RESULT frame read (-1: none)
  bool ok = false;  // DOC_DONE and results equal to the oracle
};

struct WindowTotals {
  int64_t attempted = 0;  // non-warm-up documents started inside the window
  int64_t failed = 0;     // of those, the ones that were not ok
  int64_t completed = 0;  // ok documents whose terminal frame came by t1
  std::vector<double> latency_ms;  // ok documents attempted in the window
  std::vector<double> ttfr_ms;     // ... that had at least one result
};

// Warm-up documents never count.  A document belongs to the window when it
// started in [t0, t1); one that finishes after t1 still counts as attempted
// and contributes its latency, but not to `completed`.
WindowTotals Account(const std::vector<DocRecord>& docs, double t0, double t1);

}  // namespace wirebench

#endif  // WIREBENCH_BENCH_MATH_H_
