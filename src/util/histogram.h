// Log-bucketed latency histogram with percentile queries.
//
// Buckets grow geometrically (HdrHistogram-style: linear sub-buckets within power-of-two
// ranges), giving ~3% relative error across nanoseconds-to-seconds with a small fixed
// footprint. Used by every benchmark to report p50/p90/p99/p99.9/p99.99 latencies.

#ifndef BLOCKHEAD_SRC_UTIL_HISTOGRAM_H_
#define BLOCKHEAD_SRC_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace blockhead {

class Histogram {
 public:
  Histogram();

  // Records one sample (e.g. a latency in nanoseconds).
  void Record(std::uint64_t value);
  // Records `count` identical samples.
  void RecordMany(std::uint64_t value, std::uint64_t count);

  // Merges another histogram into this one.
  void Merge(const Histogram& other);

  void Reset();

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const;

  // Value at quantile q in [0, 1]. Returns 0 for an empty histogram. The returned value is the
  // representative (upper bound) of the bucket containing the q-th sample.
  std::uint64_t Percentile(double q) const;

  // Named percentile accessors (the set the telemetry sinks serialize).
  std::uint64_t P50() const { return Percentile(0.50); }
  std::uint64_t P90() const { return Percentile(0.90); }
  std::uint64_t P95() const { return Percentile(0.95); }
  std::uint64_t P99() const { return Percentile(0.99); }
  std::uint64_t P999() const { return Percentile(0.999); }

  // One-line summary: count, mean, p50, p90, p99, p99.9, max — values rendered with `unit`
  // divisor (e.g. 1000 for microseconds) and `unit_name`.
  std::string Summary(double unit, const std::string& unit_name) const;

  // Raw bucket occupancy (index → sample count). The layout is a pure function of the
  // recorded multiset, which is what lets the audit layer hash histogram *content*
  // independent of Record/Merge order (AuditHashHistogram).
  const std::vector<std::uint64_t>& bucket_counts() const { return buckets_; }

 private:
  static constexpr int kSubBucketBits = 5;  // 32 linear sub-buckets per power of two.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  static int BucketIndex(std::uint64_t value);
  static std::uint64_t BucketUpperBound(int index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

// Histogram over a rolling time window, for SLO evaluation over "the last W nanoseconds"
// of model time rather than the whole run.
//
// The window is split into `num_buckets` equal epochs, each holding a sub-histogram; a
// recording that lands in a bucket whose epoch has rolled over resets that bucket first
// (lazy expiry — no timer). Merged(now) merges the buckets still inside the window ending at
// `now`, so the result covers between (num_buckets-1)/num_buckets and 1 full window of
// history — the standard sliding-window approximation. Time must be driven with the
// simulation clock; queries at an earlier time than recordings simply see fewer live
// buckets. Deterministic: same (now, value) sequence, byte-identical state.
class RollingHistogram {
 public:
  explicit RollingHistogram(std::uint64_t window_ns, int num_buckets = 4);

  void Record(std::uint64_t now, std::uint64_t value);

  // Merge of all buckets whose epoch lies in the window ending at `now`.
  Histogram Merged(std::uint64_t now) const;

  std::uint64_t window_ns() const { return bucket_ns_ * buckets_.size(); }
  std::uint64_t bucket_ns() const { return bucket_ns_; }

 private:
  static constexpr std::uint64_t kNoEpoch = ~0ULL;
  struct Bucket {
    std::uint64_t epoch = kNoEpoch;  // now / bucket_ns at last Record; kNoEpoch = empty.
    Histogram hist;
  };

  std::uint64_t bucket_ns_;
  std::vector<Bucket> buckets_;
};

// Counter over the same rolling-window scheme (SLO burn-rate tallies).
class RollingCounter {
 public:
  explicit RollingCounter(std::uint64_t window_ns, int num_buckets = 4);

  void Add(std::uint64_t now, std::uint64_t n = 1);

  // Sum of all buckets whose epoch lies in the window ending at `now`.
  std::uint64_t Sum(std::uint64_t now) const;

  std::uint64_t window_ns() const { return bucket_ns_ * buckets_.size(); }

 private:
  static constexpr std::uint64_t kNoEpoch = ~0ULL;
  struct Bucket {
    std::uint64_t epoch = kNoEpoch;
    std::uint64_t value = 0;
  };

  std::uint64_t bucket_ns_;
  std::vector<Bucket> buckets_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_UTIL_HISTOGRAM_H_
