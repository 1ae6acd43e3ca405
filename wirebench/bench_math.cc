#include "bench_math.h"

#include <algorithm>

namespace wirebench {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

// splitmix64 finalizer: spreads (slot, hash, count) before the commutative
// sum so that swapping fragments between slots changes the fold.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ResultDigest::ResultDigest(size_t slots)
    : slot_hash_(slots, kFnvOffset), slot_count_(slots, 0) {}

bool ResultDigest::Add(uint32_t slot, std::string_view fragment) {
  if (slot >= slot_hash_.size()) {
    bad_slot_ = true;
    return false;
  }
  // Length-prefix each fragment so that fragment boundaries are part of
  // the digest ("ab","c" != "a","bc").
  const uint64_t len = fragment.size();
  const std::string_view len_bytes(reinterpret_cast<const char*>(&len),
                                   sizeof len);
  slot_hash_[slot] = Fnv1a(fragment, Fnv1a(len_bytes, slot_hash_[slot]));
  ++slot_count_[slot];
  ++count_;
  return true;
}

uint64_t ResultDigest::Fold() const {
  uint64_t fold = 0;
  for (size_t s = 0; s < slot_hash_.size(); ++s) {
    if (slot_count_[s] == 0) continue;
    fold += Mix(Mix(s) ^ slot_hash_[s] ^ Mix(slot_count_[s] + 1));
  }
  return fold;
}

Expected ExpectedFrom(const ResultDigest& digest) {
  return Expected{digest.count(), digest.Fold()};
}

std::string CheckDocument(const Expected& expected, const ResultDigest& got,
                          bool done, uint64_t done_certain,
                          uint64_t done_total) {
  if (!done) return "no DOC_DONE (ERROR frame or transport failure)";
  if (got.bad_slot()) return "RESULT frame with an out-of-range slot";
  if (got.count() != expected.count) {
    return "result count " + std::to_string(got.count()) + " != oracle " +
           std::to_string(expected.count);
  }
  if (done_total != expected.count || done_certain != expected.count) {
    return "DOC_DONE certain/total " + std::to_string(done_certain) + "/" +
           std::to_string(done_total) + " != oracle " +
           std::to_string(expected.count);
  }
  if (got.Fold() != expected.fold) return "fragments differ from the oracle";
  return "";
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  out.p50 = n % 2 == 1 ? samples[n / 2]
                       : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n > 10) {
    out.tail = samples[n - 11];
    out.tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    out.tail = samples.back();
    out.tail_pct = 100.0;
  }
  return out;
}

WindowTotals Account(const std::vector<DocRecord>& docs, double t0,
                     double t1) {
  WindowTotals out;
  for (const DocRecord& d : docs) {
    if (d.warmup || d.start_s < t0 || d.start_s >= t1) continue;
    ++out.attempted;
    if (!d.ok) {
      ++out.failed;
      continue;
    }
    if (d.end_s <= t1) ++out.completed;
    out.latency_ms.push_back((d.end_s - d.start_s) * 1e3);
    if (d.first_result_s >= 0) {
      out.ttfr_ms.push_back((d.first_result_s - d.start_s) * 1e3);
    }
  }
  return out;
}

}  // namespace wirebench
