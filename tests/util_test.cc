// Unit tests for src/util: status/result, RNG + zipf, histogram, bitmap, event queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "src/util/bitmap.h"
#include "src/util/event_queue.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kZoneFull, "zone 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kZoneFull);
  EXPECT_EQ(s.ToString(), "ZONE_FULL: zone 7");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 17;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 17);
  EXPECT_EQ(*r, 17);
  EXPECT_EQ(r.code(), ErrorCode::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ErrorCode::kNotFound;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    trues += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(trues / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextExponential(50.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 50.0, 2.5);
}

TEST(ZipfTest, ValuesInRange) {
  ZipfGenerator zipf(1000, 0.99, 3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(), 1000u);
  }
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  ZipfGenerator zipf(10000, 0.99, 3);
  std::uint64_t in_top_100 = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    if (zipf.Next() < 100) {
      ++in_top_100;
    }
  }
  // With theta=0.99 the head is heavy: top 1% of keys should absorb the majority of draws.
  EXPECT_GT(static_cast<double>(in_top_100) / draws, 0.5);
}

TEST(ZipfTest, LowThetaIsNearUniform) {
  ZipfGenerator zipf(1000, 0.01, 3);
  std::uint64_t in_top_100 = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    if (zipf.Next() < 100) {
      ++in_top_100;
    }
  }
  EXPECT_NEAR(static_cast<double>(in_top_100) / draws, 0.1, 0.05);
}

TEST(ZipfTest, ThetaAboveOneStaysInRangeAndSkewed) {
  // bench_fleet draws at theta = 1.05: past the singular point, the exponent 1/(1 - theta) is
  // negative and the method still maps every draw into [0, n), heaviest at rank 0.
  const std::uint64_t n = 100000;
  ZipfGenerator zipf(n, 1.05, 3);
  std::vector<std::uint64_t> hits(3, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = zipf.Next();
    ASSERT_LT(v, n);
    if (v < hits.size()) {
      ++hits[v];
    }
  }
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[2]);
  EXPECT_NEAR(static_cast<double>(hits[0]) / draws, 0.107, 0.01);
}

TEST(ZipfDeathTest, SingularOrNonPositiveThetaAborts) {
  EXPECT_DEATH(ZipfGenerator(1000, 1.0, 3), "invalid ZipfGenerator");
  EXPECT_DEATH(ZipfGenerator(1000, 0.0, 3), "invalid ZipfGenerator");
  EXPECT_DEATH(ZipfGenerator(1000, -0.5, 3), "invalid ZipfGenerator");
  EXPECT_DEATH(ZipfGenerator(1000, std::nan(""), 3), "invalid ZipfGenerator");
  EXPECT_DEATH(ZipfGenerator(0, 0.99, 3), "invalid ZipfGenerator");
}

TEST(PermutationTest, IsAPermutation) {
  const auto perm = RandomPermutation(257, 9);
  ASSERT_EQ(perm.size(), 257u);
  std::set<std::uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.Mean(), 100.0);
  // Log-bucketed: percentile within ~3.2% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 100.0, 100.0 / 31.0);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(1.0), 31u);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    h.Record(rng.NextBelow(1000000));
  }
  const auto p50 = h.Percentile(0.50);
  const auto p90 = h.Percentile(0.90);
  const auto p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Uniform distribution: p50 near 500k within bucket error.
  EXPECT_NEAR(static_cast<double>(p50), 500000.0, 500000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(p90), 900000.0, 900000.0 * 0.05);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(30);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, NamedPercentileAccessors) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.P50(), h.Percentile(0.50));
  EXPECT_EQ(h.P90(), h.Percentile(0.90));
  EXPECT_EQ(h.P95(), h.Percentile(0.95));
  EXPECT_EQ(h.P99(), h.Percentile(0.99));
  EXPECT_EQ(h.P999(), h.Percentile(0.999));
  EXPECT_LE(h.P50(), h.P95());
  EXPECT_LE(h.P95(), h.P99());
  EXPECT_LE(h.P99(), h.P999());
  EXPECT_LE(h.P999(), h.max());
  EXPECT_EQ(h.sum(), 10000u * 10001u / 2);
}

TEST(HistogramTest, MergePreservesPercentilesAndSum) {
  // Merging two histograms must equal recording the union into one.
  Histogram a;
  Histogram b;
  Histogram combined;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.NextBelow(1000000);
    ((i % 2 == 0) ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.P50(), combined.P50());
  EXPECT_EQ(a.P95(), combined.P95());
  EXPECT_EQ(a.P99(), combined.P99());
  EXPECT_EQ(a.P999(), combined.P999());
}

TEST(HistogramTest, RecordManyAndReset) {
  Histogram h;
  h.RecordMany(50, 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.Mean(), 50.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, SummaryIsNonEmpty) {
  Histogram h;
  h.Record(1234);
  const std::string s = h.Summary(1000.0, "us");
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("us"), std::string::npos);
}

TEST(RollingHistogramTest, EmptyWindowMergesToEmptyHistogram) {
  RollingHistogram rh(1000, 4);
  const Histogram empty = rh.Merged(5000);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.Percentile(0.99), 0u);
  // Records that have aged fully out of the window also merge to empty.
  rh.Record(100, 42);
  EXPECT_EQ(rh.Merged(100).count(), 1u);
  EXPECT_EQ(rh.Merged(100 + rh.window_ns() * 2).count(), 0u);
}

TEST(RollingHistogramTest, SingleSampleWindowReportsThatSample) {
  RollingHistogram rh(1000, 4);
  rh.Record(500, 77);
  const Histogram h = rh.Merged(500);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(0.5), 77u);
  EXPECT_EQ(h.Percentile(0.999), 77u);
}

TEST(RollingHistogramTest, RolloverMidMergeDropsOnlyExpiredBuckets) {
  // 4 buckets of 250ns. Fill all four epochs, then advance far enough that the oldest
  // bucket has rolled over: a merge taken mid-rollover must contain exactly the samples
  // still inside the window, and a stale bucket being *reused* must shed its old content.
  RollingHistogram rh(1000, 4);
  rh.Record(100, 1);   // epoch 0
  rh.Record(300, 2);   // epoch 1
  rh.Record(600, 3);   // epoch 2
  rh.Record(900, 4);   // epoch 3
  EXPECT_EQ(rh.Merged(900).count(), 4u);
  // now = 1100 (epoch 4): the window [100, 1100] no longer covers epoch 0.
  EXPECT_EQ(rh.Merged(1100).count(), 3u);
  EXPECT_EQ(rh.Merged(1100).Percentile(0.01), 2u);
  // Writing into epoch 4 reuses epoch 0's slot; the old sample must not resurface.
  rh.Record(1100, 5);
  const Histogram mid = rh.Merged(1100);
  EXPECT_EQ(mid.count(), 4u);
  EXPECT_EQ(mid.Percentile(0.01), 2u);
  EXPECT_EQ(mid.Percentile(0.999), 5u);
  // Merging at a later now while the same buckets stand: expiry is by epoch, not by call
  // order, so percentiles stay consistent with the surviving population.
  EXPECT_EQ(rh.Merged(1500).count(), 2u);   // epochs 1 and 2 (t=300, t=600) aged out too.
  EXPECT_EQ(rh.Merged(1500).Percentile(0.01), 4u);
}

TEST(RollingHistogramTest, LongIdleGapExpiresEveryBucketLazily) {
  // A gap much longer than the window — and in particular a gap that is an exact multiple
  // of the window — lands new epochs on the SAME slot indices the stale epochs used
  // (epoch % num_buckets collides). Lazy expiry must go by epoch number, never slot
  // occupancy, or the pre-gap samples would resurface in the post-gap merge.
  RollingHistogram rh(1000, 4);
  rh.Record(100, 1);
  rh.Record(300, 2);
  rh.Record(600, 3);
  rh.Record(900, 4);
  const std::uint64_t gap = rh.window_ns() * 1000;  // Epochs collide modulo num_buckets.
  EXPECT_EQ(rh.Merged(900 + gap).count(), 0u);
  rh.Record(100 + gap, 50);  // Same slot as the t=100 sample's epoch.
  const Histogram after = rh.Merged(100 + gap);
  EXPECT_EQ(after.count(), 1u);
  EXPECT_EQ(after.Percentile(0.5), 50u);
  EXPECT_EQ(after.min(), 50u) << "pre-gap sample resurfaced after idle gap";
}

TEST(RollingCounterTest, SumTracksWindowAndRollover) {
  RollingCounter rc(1000, 4);
  EXPECT_EQ(rc.Sum(0), 0u);  // Empty window.
  rc.Add(100, 10);
  rc.Add(900, 1);
  EXPECT_EQ(rc.Sum(900), 11u);
  EXPECT_EQ(rc.Sum(1100), 1u);  // The epoch-0 tally aged out.
  rc.Add(1100, 5);              // Reuses epoch 0's slot without resurrecting its value.
  EXPECT_EQ(rc.Sum(1100), 6u);
  EXPECT_EQ(rc.Sum(1100 + rc.window_ns() * 2), 0u);
}

TEST(RollingCounterTest, LongIdleGapExpiresEveryBucketLazily) {
  RollingCounter rc(1000, 4);
  rc.Add(100, 10);
  rc.Add(900, 7);
  const std::uint64_t gap = rc.window_ns() * 4096;  // Exact multiple: slots collide.
  EXPECT_EQ(rc.Sum(900 + gap), 0u);
  rc.Add(100 + gap, 3);  // Reuses the t=100 tally's slot after the idle gap.
  EXPECT_EQ(rc.Sum(100 + gap), 3u) << "pre-gap tally resurfaced after idle gap";
}

TEST(BitmapTest, SetTestClear) {
  Bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_EQ(bm.set_count(), 0u);
  EXPECT_TRUE(bm.Set(0));
  EXPECT_TRUE(bm.Set(129));
  EXPECT_FALSE(bm.Set(129));  // Already set.
  EXPECT_EQ(bm.set_count(), 2u);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_FALSE(bm.Test(64));
  EXPECT_TRUE(bm.Clear(0));
  EXPECT_FALSE(bm.Clear(0));
  EXPECT_EQ(bm.set_count(), 1u);
}

TEST(BitmapTest, FindFirstSetAndClear) {
  Bitmap bm(200);
  EXPECT_EQ(bm.FindFirstSet(), 200u);
  EXPECT_EQ(bm.FindFirstClear(), 0u);
  bm.Set(70);
  bm.Set(150);
  EXPECT_EQ(bm.FindFirstSet(), 70u);
  EXPECT_EQ(bm.FindFirstSet(71), 150u);
  EXPECT_EQ(bm.FindFirstSet(151), 200u);
  for (std::size_t i = 0; i < 65; ++i) {
    bm.Set(i);
  }
  EXPECT_EQ(bm.FindFirstClear(), 65u);
}

TEST(BitmapTest, ClearAll) {
  Bitmap bm(64);
  for (std::size_t i = 0; i < 64; ++i) {
    bm.Set(i);
  }
  EXPECT_EQ(bm.set_count(), 64u);
  bm.ClearAll();
  EXPECT_EQ(bm.set_count(), 0u);
  EXPECT_EQ(bm.FindFirstSet(), 64u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue<int> q;
  q.Push(30, 3);
  q.Push(10, 1);
  q.Push(20, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.PeekTime(), 10u);
  EXPECT_EQ(q.Pop().payload, 1);
  EXPECT_EQ(q.Pop().payload, 2);
  EXPECT_EQ(q.Pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue<int> q;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.Pop().payload, i);
  }
}

TEST(EventQueueTest, EqualTimeFifoSurvivesInterleavedPops) {
  // FIFO order among equal-time events must hold even when pops interleave with pushes (the
  // pattern of an actor re-scheduling itself at the current time).
  EventQueue<int> q;
  q.Push(5, 0);
  q.Push(5, 1);
  EXPECT_EQ(q.Pop().payload, 0);
  q.Push(5, 2);  // Same time, pushed after a pop.
  q.Push(3, 99);
  EXPECT_EQ(q.Pop().payload, 99);  // Earlier time still wins.
  EXPECT_EQ(q.Pop().payload, 1);
  EXPECT_EQ(q.Pop().payload, 2);
  EXPECT_TRUE(q.empty());
}

TEST(TypesTest, ThroughputConversion) {
  EXPECT_DOUBLE_EQ(ToMiBPerSec(kMiB, kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMiBPerSec(0, kSecond), 0.0);
  EXPECT_DOUBLE_EQ(ToMiBPerSec(kMiB, 0), 0.0);
  EXPECT_DOUBLE_EQ(ToMiBPerSec(512 * kMiB, kSecond / 2), 1024.0);
}

}  // namespace
}  // namespace blockhead
