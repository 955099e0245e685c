#include "src/util/histogram.h"

#include <algorithm>
#include <cstdio>

namespace blockhead {

Histogram::Histogram() = default;

std::uint64_t Histogram::BucketUpperBound(int index) {
  if (index < kSubBuckets) {
    return static_cast<std::uint64_t>(index);
  }
  const int rest = index - kSubBuckets;
  const int shift = rest / kSubBuckets;
  const int sub = rest % kSubBuckets;
  return ((static_cast<std::uint64_t>(kSubBuckets + sub + 1)) << shift) - 1;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

double Histogram::Mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, ceil).
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5);
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::min(BucketUpperBound(static_cast<int>(i)), max_);
    }
  }
  return max_;
}

RollingHistogram::RollingHistogram(std::uint64_t window_ns, int num_buckets) {
  if (num_buckets < 1) {
    num_buckets = 1;
  }
  bucket_ns_ = window_ns / static_cast<std::uint64_t>(num_buckets);
  if (bucket_ns_ == 0) {
    bucket_ns_ = 1;
  }
  buckets_.resize(static_cast<std::size_t>(num_buckets));
}

void RollingHistogram::Record(std::uint64_t now, std::uint64_t value) {
  const std::uint64_t epoch = now / bucket_ns_;
  Bucket& b = buckets_[epoch % buckets_.size()];
  if (b.epoch != epoch) {
    b.hist.Reset();  // Lazy expiry: the slot last held an epoch a full window ago.
    b.epoch = epoch;
  }
  b.hist.Record(value);
}

Histogram RollingHistogram::Merged(std::uint64_t now) const {
  Histogram out;
  const std::uint64_t epoch_now = now / bucket_ns_;
  const std::uint64_t n = buckets_.size();
  for (const Bucket& b : buckets_) {
    // Live: recorded within the window ending at `now` (epoch in (epoch_now - n, epoch_now]).
    if (b.epoch != kNoEpoch && b.epoch <= epoch_now && epoch_now - b.epoch < n) {
      out.Merge(b.hist);
    }
  }
  return out;
}

RollingCounter::RollingCounter(std::uint64_t window_ns, int num_buckets) {
  if (num_buckets < 1) {
    num_buckets = 1;
  }
  bucket_ns_ = window_ns / static_cast<std::uint64_t>(num_buckets);
  if (bucket_ns_ == 0) {
    bucket_ns_ = 1;
  }
  buckets_.resize(static_cast<std::size_t>(num_buckets));
}

void RollingCounter::Add(std::uint64_t now, std::uint64_t n) {
  const std::uint64_t epoch = now / bucket_ns_;
  Bucket& b = buckets_[epoch % buckets_.size()];
  if (b.epoch != epoch) {
    b.value = 0;
    b.epoch = epoch;
  }
  b.value += n;
}

std::uint64_t RollingCounter::Sum(std::uint64_t now) const {
  std::uint64_t sum = 0;
  const std::uint64_t epoch_now = now / bucket_ns_;
  const std::uint64_t n = buckets_.size();
  for (const Bucket& b : buckets_) {
    if (b.epoch != kNoEpoch && b.epoch <= epoch_now && epoch_now - b.epoch < n) {
      sum += b.value;
    }
  }
  return sum;
}

std::string Histogram::Summary(double unit, const std::string& unit_name) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f%s p50=%.1f%s p90=%.1f%s p99=%.1f%s p99.9=%.1f%s max=%.1f%s",
                static_cast<unsigned long long>(count_), Mean() / unit, unit_name.c_str(),
                static_cast<double>(Percentile(0.50)) / unit, unit_name.c_str(),
                static_cast<double>(Percentile(0.90)) / unit, unit_name.c_str(),
                static_cast<double>(Percentile(0.99)) / unit, unit_name.c_str(),
                static_cast<double>(Percentile(0.999)) / unit, unit_name.c_str(),
                static_cast<double>(max()) / unit, unit_name.c_str());
  return std::string(buf);
}

}  // namespace blockhead
