// Tests for the flash caches: hit/miss accounting, eviction correctness, DRAM staging
// accounting, and the structural write-amplification differences between the three designs.

#include <gtest/gtest.h>

#include "src/cache/flash_cache.h"
#include "src/ftl/conventional_ssd.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  c.store_data = false;
  return c;
}

ZnsConfig DeviceConfig() {
  ZnsConfig z;
  z.max_active_zones = 6;
  z.max_open_zones = 6;
  return z;
}

TEST(BlockCacheTest, PutThenGetHits) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockFlashCache cache(&ssd, BlockCacheConfig{});
  ASSERT_TRUE(cache.Put(1, 10000, 0).ok());
  auto got = cache.Get(1, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->hit);
  EXPECT_EQ(got->size_bytes, 10000u);
  auto miss = cache.Get(2, 0);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->hit);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BlockCacheTest, CoalescingStagesInDram) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockCacheConfig cfg;
  cfg.segment_pages = 32;
  BlockFlashCache cache(&ssd, cfg);
  EXPECT_EQ(cache.StagingDramBytes(), 32u * 4096);
  // A small object sits in the buffer: no flash writes yet.
  ASSERT_TRUE(cache.Put(1, 4096, 0).ok());
  EXPECT_EQ(ssd.ftl_stats().host_pages_written, 0u);
  // Filling the buffer flushes one big sequential write.
  for (std::uint64_t k = 2; k < 40; ++k) {
    ASSERT_TRUE(cache.Put(k, 4096, 0).ok());
  }
  EXPECT_GT(ssd.ftl_stats().host_pages_written, 0u);
  EXPECT_GT(cache.stats().segments_recycled, 0u);
  // Objects remain retrievable whether staged or flushed.
  for (std::uint64_t k = 1; k < 40; ++k) {
    auto got = cache.Get(k, 0);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->hit) << k;
  }
}

TEST(BlockCacheTest, FifoEvictionDropsOldestSegment) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockCacheConfig cfg;
  cfg.segment_pages = 16;
  BlockFlashCache cache(&ssd, cfg);
  const std::uint64_t capacity_objects = ssd.num_blocks();  // 1 page each.
  // Insert 1.5x capacity of 1-page objects: the oldest must be evicted.
  SimTime t = 0;
  const std::uint64_t total = capacity_objects + capacity_objects / 2;
  for (std::uint64_t k = 0; k < total; ++k) {
    auto p = cache.Put(k, 4096, t);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    t = p.value();
  }
  EXPECT_GT(cache.stats().evicted_objects, 0u);
  auto oldest = cache.Get(0, t);
  ASSERT_TRUE(oldest.ok());
  EXPECT_FALSE(oldest->hit);
  auto newest = cache.Get(total - 1, t);
  ASSERT_TRUE(newest.ok());
  EXPECT_TRUE(newest->hit);
}

TEST(BlockCacheTest, NaiveModeWritesImmediatelyAndEvicts) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockCacheConfig cfg;
  cfg.coalesce_writes = false;
  BlockFlashCache cache(&ssd, cfg);
  EXPECT_EQ(cache.StagingDramBytes(), 0u);
  ASSERT_TRUE(cache.Put(1, 8192, 0).ok());
  EXPECT_EQ(ssd.ftl_stats().host_pages_written, 2u);
  // Fill past capacity.
  SimTime t = 0;
  for (std::uint64_t k = 2; k < ssd.num_blocks(); ++k) {
    auto p = cache.Put(k, 4096, t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  EXPECT_GT(cache.stats().evicted_objects, 0u);
  auto newest = cache.Get(ssd.num_blocks() - 1, t);
  ASSERT_TRUE(newest.ok());
  EXPECT_TRUE(newest->hit);
}

TEST(BlockCacheTest, OverwriteKeepsSingleCopy) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockFlashCache cache(&ssd, BlockCacheConfig{});
  ASSERT_TRUE(cache.Put(5, 4096, 0).ok());
  ASSERT_TRUE(cache.Put(5, 12288, 0).ok());
  auto got = cache.Get(5, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->hit);
  EXPECT_EQ(got->size_bytes, 12288u);
}

TEST(ZnsCacheTest, PutGetEvict) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  ZnsFlashCache cache(&dev);
  SimTime t = 0;
  const std::uint64_t capacity_objects =
      static_cast<std::uint64_t>(dev.num_zones()) * dev.zone_size_pages();
  for (std::uint64_t k = 0; k < capacity_objects + 200; ++k) {
    auto p = cache.Put(k, 4096, t);
    ASSERT_TRUE(p.ok()) << p.status().ToString() << " at " << k;
    t = p.value();
  }
  EXPECT_GT(cache.stats().segments_recycled, 0u);
  EXPECT_GT(cache.stats().evicted_objects, 0u);
  auto oldest = cache.Get(0, t);
  ASSERT_TRUE(oldest.ok());
  EXPECT_FALSE(oldest->hit);
  auto newest = cache.Get(capacity_objects + 199, t);
  ASSERT_TRUE(newest.ok());
  EXPECT_TRUE(newest->hit);
}

TEST(ZnsCacheTest, NoStagingDramAndUnitWa) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  ZnsFlashCache cache(&dev);
  EXPECT_EQ(cache.StagingDramBytes(), 0u);
  SimTime t = 0;
  const std::uint64_t churn =
      2 * static_cast<std::uint64_t>(dev.num_zones()) * dev.zone_size_pages();
  for (std::uint64_t k = 0; k < churn; ++k) {
    auto p = cache.Put(k % (churn / 3), 4096, t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  // Structural WA = 1: every flash program is a host write (eviction is reset, not copy).
  const FlashStats& fs = dev.flash().stats();
  EXPECT_EQ(fs.internal_pages_programmed, 0u);
}

TEST(ZnsCacheTest, LargeObjectSpanningPagesReadable) {
  FlashConfig fc = SmallFlash();
  fc.store_data = true;
  ZnsDevice dev(fc, DeviceConfig());
  ZnsFlashCache cache(&dev);
  ASSERT_TRUE(cache.Put(9, 5 * 4096 + 100, 0).ok());
  auto got = cache.Get(9, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->hit);
  EXPECT_EQ(got->size_bytes, 5u * 4096 + 100);
  EXPECT_GT(got->completion, 0u);
}

TEST(CacheComparisonTest, NaiveBlockDesignAmplifiesWrites) {
  // The §4.1 story in one test: naive per-object placement on a conventional SSD causes FTL
  // GC; the coalescing design and the ZNS design avoid it.
  const std::uint64_t churn_objects = 6000;
  Rng rng(1);

  auto run_block = [&](bool coalesce) {
    ConventionalSsd ssd(SmallFlash(), FtlConfig{});
    BlockCacheConfig cfg;
    cfg.coalesce_writes = coalesce;
    BlockFlashCache cache(&ssd, cfg);
    Rng local(2);
    SimTime t = 0;
    for (std::uint64_t i = 0; i < churn_objects; ++i) {
      auto p = cache.Put(local.NextBelow(4000), 4096 + local.NextBelow(8192), t);
      EXPECT_TRUE(p.ok());
      t = p.value();
    }
    return ssd.WriteAmplification();
  };

  const double wa_naive = run_block(false);
  const double wa_coalesced = run_block(true);
  EXPECT_GT(wa_naive, 1.15);
  EXPECT_LT(wa_coalesced, wa_naive);
}

}  // namespace
}  // namespace blockhead
