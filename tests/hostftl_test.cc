// Tests for the host-side block-on-ZNS layer (dm-zoned role): correctness of the emulated
// block interface under churn, GC behaviour, simple-copy bus savings, scheduler integration.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/hostftl/host_ftl.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

ZnsConfig DeviceConfig() {
  ZnsConfig z;
  z.max_active_zones = 6;
  z.max_open_zones = 6;
  return z;
}

std::vector<std::uint8_t> Pattern(std::uint32_t page_size, std::uint8_t tag) {
  std::vector<std::uint8_t> v(page_size);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(tag * 3 + i);
  }
  return v;
}

TEST(HostFtlTest, ExportsReducedCapacity) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
  const std::uint64_t physical = static_cast<std::uint64_t>(dev.num_zones()) *
                                 dev.zone_size_pages();
  EXPECT_LT(ftl.num_blocks(), physical);
  EXPECT_GT(ftl.num_blocks(), physical / 2);
  EXPECT_EQ(ftl.block_size(), 4096u);
}

TEST(HostFtlTest, ReadYourWriteAndOverwrite) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
  SimTime t = 0;
  for (std::uint8_t tag = 0; tag < 4; ++tag) {
    auto w = ftl.WriteBlocks(Lba{7}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(ftl.ReadBlocks(Lba{7}, 1, t, out).ok());
  EXPECT_EQ(out, Pattern(4096, 3));
}

TEST(HostFtlTest, UnwrittenReadsZeros) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
  std::vector<std::uint8_t> out(4096, 0xCC);
  ASSERT_TRUE(ftl.ReadBlocks(Lba{3}, 1, 0, out).ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
}

TEST(HostFtlTest, OutOfRangeRejected) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
  EXPECT_EQ(ftl.WriteBlocks(Lba{ftl.num_blocks()}, 1, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ftl.ReadBlocks(Lba{ftl.num_blocks() - 1}, 2, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ftl.TrimBlocks(Lba{ftl.num_blocks()}, 1, 0).code(), ErrorCode::kOutOfRange);
}

TEST(HostFtlTest, ChurnPreservesAllData) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
  Rng rng(1);
  SimTime t = 0;
  const std::uint64_t n = ftl.num_blocks();
  std::map<std::uint64_t, std::uint8_t> truth;
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Next());
    auto w = ftl.WriteBlocks(Lba{lba}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok()) << w.status().ToString() << " at op " << i;
    t = w.value();
    truth[lba] = tag;
  }
  ASSERT_GT(ftl.stats().gc_cycles, 0u) << "churn must trigger host GC";
  std::vector<std::uint8_t> out(4096);
  for (const auto& [lba, tag] : truth) {
    ASSERT_TRUE(ftl.ReadBlocks(Lba{lba}, 1, t, out).ok());
    ASSERT_EQ(out, Pattern(4096, tag)) << "lba " << lba;
  }
  EXPECT_TRUE(ftl.CheckConsistency().ok());
  EXPECT_GE(ftl.EndToEndWriteAmplification(), 1.0);
}

TEST(HostFtlTest, AppendModeAlsoPreservesData) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlConfig cfg;
  cfg.use_append = true;
  HostFtlBlockDevice ftl(&dev, cfg);
  Rng rng(2);
  SimTime t = 0;
  const std::uint64_t n = ftl.num_blocks();
  std::map<std::uint64_t, std::uint8_t> truth;
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Next());
    auto w = ftl.WriteBlocks(Lba{lba}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
    truth[lba] = tag;
  }
  std::vector<std::uint8_t> out(4096);
  for (const auto& [lba, tag] : truth) {
    ASSERT_TRUE(ftl.ReadBlocks(Lba{lba}, 1, t, out).ok());
    ASSERT_EQ(out, Pattern(4096, tag));
  }
  EXPECT_GT(dev.stats().pages_appended, 0u);
  EXPECT_EQ(dev.stats().pages_written, 0u);
}

TEST(HostFtlTest, SimpleCopyGcAvoidsHostBus) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;

  auto gc_bus_bytes = [&](bool simple_copy) {
    ZnsDevice dev(fc, DeviceConfig());
    HostFtlConfig cfg;
    cfg.use_simple_copy = simple_copy;
    HostFtlBlockDevice ftl(&dev, cfg);
    Rng rng(3);
    SimTime t = 0;
    const std::uint64_t n = ftl.num_blocks();
    for (std::uint64_t i = 0; i < 3 * n; ++i) {
      auto w = ftl.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
      EXPECT_TRUE(w.ok());
      t = w.value();
    }
    EXPECT_GT(ftl.stats().gc_pages_copied, 0u);
    return ftl.stats().gc_host_bus_bytes;
  };

  EXPECT_EQ(gc_bus_bytes(true), 0u);
  EXPECT_GT(gc_bus_bytes(false), 0u);
}

TEST(HostFtlTest, TrimFreesSpaceAndReducesGcWork) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;

  auto copied = [&](bool trim) {
    ZnsDevice dev(fc, DeviceConfig());
    HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
    Rng rng(4);
    SimTime t = 0;
    const std::uint64_t n = ftl.num_blocks();
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < n; ++i) {
        auto w = ftl.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
        EXPECT_TRUE(w.ok());
        t = w.value();
      }
      if (trim) {
        EXPECT_TRUE(ftl.TrimBlocks(Lba{0}, static_cast<std::uint32_t>(n / 2), t).ok());
      }
    }
    return ftl.stats().gc_pages_copied;
  };

  EXPECT_LT(copied(true), copied(false));
}

TEST(HostFtlTest, PumpRunsBackgroundGc) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ZnsDevice dev(fc, DeviceConfig());
  HostFtlConfig cfg;
  cfg.sched.policy = GcSchedPolicy::kBackground;
  cfg.sched.low_free_fraction = 0.5;  // Aggressive: reclaim below 50% free.
  HostFtlBlockDevice ftl(&dev, cfg);
  Rng rng(5);
  SimTime t = 0;
  const std::uint64_t n = ftl.num_blocks();
  // Dirty most of the device.
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    auto w = ftl.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  const std::uint64_t free_before = ftl.FreeZones();
  const std::uint32_t ran = ftl.Pump(t, /*reads_pending=*/false, /*max_cycles=*/4);
  EXPECT_GT(ran, 0u);
  EXPECT_GE(ftl.FreeZones(), free_before);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(HostFtlTest, ReadPriorityPumpDefersUnderReads) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ZnsDevice dev(fc, DeviceConfig());
  HostFtlConfig cfg;
  cfg.sched.policy = GcSchedPolicy::kReadPriority;
  cfg.sched.low_free_fraction = 0.5;
  HostFtlBlockDevice ftl(&dev, cfg);
  Rng rng(6);
  SimTime t = 0;
  const std::uint64_t n = ftl.num_blocks();
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    auto w = ftl.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_EQ(ftl.Pump(t, /*reads_pending=*/true, 4), 0u);
  EXPECT_GT(ftl.Pump(t, /*reads_pending=*/false, 4), 0u);
}

TEST(HostFtlTest, HostMappingBytesAccounted) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
  // 4 B forward per logical page + 4 B reverse per device page.
  const std::uint64_t physical = static_cast<std::uint64_t>(dev.num_zones()) *
                                 dev.zone_size_pages();
  EXPECT_EQ(ftl.HostMappingBytes(), ftl.num_blocks() * 4 + physical * 4);
  // ...which are the page map's own 4-byte entries.
  const PageMap& map = ftl.page_map();
  EXPECT_EQ(sizeof(PageMap::Entry), 4u);
  EXPECT_EQ(map.logical_pages(), ftl.num_blocks());
  EXPECT_EQ(map.physical_pages(), physical);
  EXPECT_EQ(ftl.HostMappingBytes(), (map.logical_pages() + map.physical_pages()) * 4);
}

TEST(HostFtlTest, MultiPageIo) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlBlockDevice ftl(&dev, HostFtlConfig{});
  std::vector<std::uint8_t> data(8 * 4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  auto w = ftl.WriteBlocks(Lba{100}, 8, 0, data);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(8 * 4096);
  ASSERT_TRUE(ftl.ReadBlocks(Lba{100}, 8, w.value(), out).ok());
  EXPECT_EQ(out, data);
}


TEST(HostFtlTest, IncrementalGcResumesAcrossPumps) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ZnsDevice dev(fc, DeviceConfig());
  HostFtlConfig cfg;
  cfg.sched.low_free_fraction = 0.5;  // Eager (clamped internally to the spare fraction).
  HostFtlBlockDevice ftl(&dev, cfg);
  Rng rng(9);
  SimTime t = 0;
  const std::uint64_t n = ftl.num_blocks();
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    auto w = ftl.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  // Single pump steps relocate at most kGcStepPages pages each: a victim with more live pages
  // than that (of 128 here) takes several steps, so zones_reclaimed advances slower than pump
  // calls.
  ASSERT_LT(HostFtlBlockDevice::kGcStepPages, dev.zone_size_pages());
  const std::uint64_t reclaimed_before = ftl.stats().zones_reclaimed;
  std::uint32_t steps = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t copied_before = ftl.stats().gc_pages_copied;
    steps += ftl.Pump(t, false, 1);
    EXPECT_LE(ftl.stats().gc_pages_copied - copied_before, HostFtlBlockDevice::kGcStepPages);
  }
  EXPECT_GT(steps, 0u);
  EXPECT_LT(ftl.stats().zones_reclaimed - reclaimed_before, steps);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

TEST(HostFtlTest, OpportunisticGcSkipsNearlyLiveZones) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ZnsDevice dev(fc, DeviceConfig());
  HostFtlConfig cfg;
  cfg.sched.low_free_fraction = 1.0;  // Clamped; still effectively eager.
  HostFtlBlockDevice ftl(&dev, cfg);
  const std::uint64_t zone_pages = dev.zone_size_pages();
  SimTime t = 0;
  auto overwrite = [&](std::uint64_t lba, std::uint32_t pages) {
    auto w = ftl.WriteBlocks(Lba{lba}, pages, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  };
  // Sequential fill: free zones are taken lowest first, so LBA run k lands in zone k.
  for (std::uint64_t lba = 0; lba + 8 <= ftl.num_blocks(); lba += 8) {
    overwrite(lba, 8);
  }
  // Leave every full run's zone one page above the opportunistic threshold. The rewrites fill
  // fresh, fully live zones and use up enough free space that background GC may run.
  const auto max_live = static_cast<std::uint32_t>(HostFtlBlockDevice::kGcMaxLiveFraction *
                                                   static_cast<double>(zone_pages));
  const auto dead = static_cast<std::uint32_t>(zone_pages) - max_live - 1;
  for (std::uint64_t run = 0; run < ftl.num_blocks() / zone_pages; ++run) {
    overwrite(run * zone_pages, dead);
  }
  EXPECT_EQ(ftl.Pump(t, false, 8), 0u) << "zones above the live threshold must not be compacted";
  EXPECT_EQ(ftl.stats().gc_pages_copied, 0u);
  // One more dead page puts zone 0 at the threshold: now it is a victim.
  overwrite(dead, 1);
  EXPECT_GT(ftl.Pump(t, false, 8), 0u);
  EXPECT_GT(ftl.stats().gc_pages_copied, 0u);
  EXPECT_TRUE(ftl.CheckConsistency().ok());
}

// The emulated block device must keep working across many fills (sustained random write),
// with several op fractions.
class HostFtlOpSweep : public ::testing::TestWithParam<double> {};

TEST_P(HostFtlOpSweep, SustainedChurnStaysConsistent) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ZnsDevice dev(fc, DeviceConfig());
  HostFtlConfig cfg;
  cfg.op_fraction = GetParam();
  HostFtlBlockDevice ftl(&dev, cfg);
  Rng rng(7);
  SimTime t = 0;
  const std::uint64_t n = ftl.num_blocks();
  for (std::uint64_t i = 0; i < 4 * n; ++i) {
    auto w = ftl.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    t = w.value();
  }
  EXPECT_TRUE(ftl.CheckConsistency().ok());
  EXPECT_GE(ftl.EndToEndWriteAmplification(), 1.0);
  EXPECT_LT(ftl.EndToEndWriteAmplification(), 50.0);
}

INSTANTIATE_TEST_SUITE_P(OpFractions, HostFtlOpSweep, ::testing::Values(0.1, 0.2, 0.3));

}  // namespace
}  // namespace blockhead
