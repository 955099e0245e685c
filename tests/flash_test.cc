// Unit tests for the NAND flash substrate: addressing, program-order enforcement,
// erase-before-program, timing/parallelism, wear and bad blocks, data integrity, stats.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/flash/flash_device.h"

namespace blockhead {
namespace {

FlashConfig TestConfig() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

TEST(GeometryTest, DerivedQuantities) {
  FlashGeometry g = FlashGeometry::Small();
  EXPECT_EQ(g.total_planes(), 4u);
  EXPECT_EQ(g.total_blocks(), 4u * 64);
  EXPECT_EQ(g.block_bytes(), 32u * 4096);
  EXPECT_EQ(g.capacity_bytes(), 4ull * 64 * 32 * 4096);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GeometryTest, InvalidGeometryRejected) {
  FlashGeometry g = FlashGeometry::Small();
  g.page_size = 0;
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GeometryTest, TotalPagesMustFitFourByteMappingEntries) {
  // 2^32 - 1 = 255 * 16843009: one page too many (that index is the unmapped sentinel).
  FlashGeometry g;
  g.channels = 1;
  g.planes_per_channel = 1;
  g.blocks_per_plane = 16843009;
  g.pages_per_block = 255;
  ASSERT_EQ(g.total_pages(), 0xFFFFFFFFull);
  EXPECT_EQ(g.Validate().code(), ErrorCode::kInvalidArgument);
  // 2^32 - 2 pages is the largest valid geometry.
  g.blocks_per_plane = 0x7FFFFFFF;
  g.pages_per_block = 2;
  EXPECT_TRUE(g.Validate().ok());
  // Products that would wrap 32-bit arithmetic are still rejected.
  g.channels = 1u << 16;
  g.planes_per_channel = 1u << 16;
  g.blocks_per_plane = 1;
  g.pages_per_block = 1;
  EXPECT_FALSE(g.Validate().ok());
}

TEST(FlashDeviceDeathTest, InvalidGeometryAborts) {
  FlashConfig c = TestConfig();
  c.geometry.page_size = 0;
  EXPECT_DEATH(FlashDevice{c}, "all geometry dimensions must be nonzero");
  c = TestConfig();
  c.geometry.blocks_per_plane = 0;
  EXPECT_DEATH(FlashDevice{c}, "all geometry dimensions must be nonzero");
}

TEST(GeometryTest, FlatIndexRoundTrip) {
  const FlashGeometry g = FlashGeometry::Small();
  for (std::uint64_t flat = 0; flat < g.total_pages(); flat += 97) {
    const PhysAddr a = AddrFromFlatPage(g, Ppa{flat});
    EXPECT_EQ(FlatPageIndex(g, a).value(), flat);
    EXPECT_LT(a.channel.value(), g.channels);
    EXPECT_LT(a.plane.value(), g.planes_per_channel);
    EXPECT_LT(a.block.value(), g.blocks_per_plane);
    EXPECT_LT(a.page.value(), g.pages_per_block);
  }
}

TEST(TimingTest, EraseRoughlySixTimesProgramForTlc) {
  const FlashTiming t = FlashTiming::Tlc();
  const double ratio = static_cast<double>(t.block_erase) / static_cast<double>(t.page_program);
  EXPECT_GE(ratio, 5.0);
  EXPECT_LE(ratio, 7.0);
}

TEST(TimingTest, EnduranceShrinksWithBitsPerCell) {
  EXPECT_GT(FlashTiming::Slc().endurance_cycles, FlashTiming::Mlc().endurance_cycles);
  EXPECT_GT(FlashTiming::Mlc().endurance_cycles, FlashTiming::Tlc().endurance_cycles);
  EXPECT_GT(FlashTiming::Tlc().endurance_cycles, FlashTiming::Qlc().endurance_cycles);
}

TEST(TimingTest, LatencyGrowsWithBitsPerCell) {
  EXPECT_LT(FlashTiming::Slc().page_program, FlashTiming::Tlc().page_program);
  EXPECT_LT(FlashTiming::Tlc().page_program, FlashTiming::Qlc().page_program);
  EXPECT_EQ(FlashTiming::ForCell(CellType::kQlc).page_program,
            FlashTiming::Qlc().page_program);
}

TEST(FlashDeviceTest, ProgramThenReadReturnsData) {
  FlashDevice dev(TestConfig());
  std::vector<std::uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  const PhysAddr a{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}};
  auto w = dev.ProgramPage(a, 0, data);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(4096, 0xFF);
  auto r = dev.ReadPage(a, w.value(), out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(FlashDeviceTest, UnwrittenPageReadsZeroes) {
  FlashDevice dev(TestConfig());
  std::vector<std::uint8_t> out(4096, 0xFF);
  auto r = dev.ReadPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{5}}, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
}

TEST(FlashDeviceTest, OutOfRangeAddressRejected) {
  FlashDevice dev(TestConfig());
  EXPECT_EQ(dev.ReadPage(PhysAddr{ChannelId{9}, PlaneId{0}, BlockId{0}, PageId{0}},
      0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{9}, BlockId{0}, PageId{0}},
      0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{999}, PageId{0}},
      0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{999}, 0).code(),
            ErrorCode::kOutOfRange);
}

TEST(FlashDeviceTest, ProgramOrderEnforced) {
  FlashDevice dev(TestConfig());
  // Skipping ahead within a block is a program-order violation.
  EXPECT_EQ(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{1}},
      0).code(), ErrorCode::kProgramOrderViolation);
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0).ok());
  // Rewriting an already-programmed page requires an erase.
  EXPECT_EQ(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}},
      0).code(), ErrorCode::kEraseBeforeProgram);
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{1}}, 0).ok());
}

TEST(FlashDeviceTest, EraseRecyclesBlock) {
  FlashDevice dev(TestConfig());
  const FlashGeometry g = dev.geometry();
  SimTime t = 0;
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    auto w = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{3}, PageId{p}}, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  // Block full: next program fails.
  EXPECT_EQ(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{3}, PageId{0}},
      t).code(), ErrorCode::kEraseBeforeProgram);
  auto e = dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{3}, t);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(dev.block_status(ChannelId{0}, PlaneId{0}, BlockId{3}).erase_count, 1u);
  EXPECT_EQ(dev.block_status(ChannelId{0}, PlaneId{0}, BlockId{3}).next_page, 0u);
  // Reprogram from page 0 works, and the old data is gone.
  std::vector<std::uint8_t> out(4096, 0xFF);
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{3}, PageId{0}},
      e.value()).ok());
  ASSERT_TRUE(dev.ReadPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{3}, PageId{0}},
      e.value(), out).ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
}

TEST(FlashDeviceTest, TimingSerializesWithinPlane) {
  FlashConfig c = TestConfig();
  FlashDevice dev(c);
  // Two programs to the same plane must serialize on the plane.
  auto w1 = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0);
  auto w2 = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{1}, PageId{0}}, 0);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  EXPECT_GE(w2.value(), w1.value() + c.timing.page_program);
}

TEST(FlashDeviceTest, TimingParallelAcrossChannels) {
  FlashConfig c = TestConfig();
  FlashDevice dev(c);
  auto w1 = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0);
  auto w2 = dev.ProgramPage(PhysAddr{ChannelId{1}, PlaneId{0}, BlockId{0}, PageId{0}}, 0);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  // Different channels: full overlap, completions within one op time of each other.
  EXPECT_EQ(w1.value(), w2.value());
}

TEST(FlashDeviceTest, TimingParallelAcrossPlanesSharesChannel) {
  FlashConfig c = TestConfig();
  FlashDevice dev(c);
  auto w1 = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0);
  auto w2 = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{1}, BlockId{0}, PageId{0}}, 0);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  // Same channel: transfers serialize (one xfer offset), but cell programs overlap.
  EXPECT_EQ(w2.value(), w1.value() + c.timing.channel_xfer);
}

TEST(FlashDeviceTest, ReadWaitsForBusyPlane) {
  FlashConfig c = TestConfig();
  FlashDevice dev(c);
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0).ok());
  // Erase occupies the plane...
  auto e = dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{1}, 0);
  ASSERT_TRUE(e.ok());
  // ...so a read issued at t=0 to that plane completes only after the erase.
  auto r = dev.ReadPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value(), e.value());
}

TEST(FlashDeviceTest, InternalOpsSkipHostBus) {
  FlashConfig c = TestConfig();
  FlashDevice dev(c);
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0).ok());
  const std::uint64_t bus_after_host = dev.stats().host_bus_bytes;
  EXPECT_EQ(bus_after_host, 4096u);
  auto cp = dev.CopyPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}},
      PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{1}, PageId{0}}, 0);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(dev.stats().host_bus_bytes, bus_after_host);  // Unchanged.
  EXPECT_EQ(dev.stats().internal_pages_read, 1u);
  EXPECT_EQ(dev.stats().internal_pages_programmed, 1u);
  EXPECT_EQ(dev.stats().host_pages_programmed, 1u);
}

TEST(FlashDeviceTest, CopyPagePreservesData) {
  FlashDevice dev(TestConfig());
  std::vector<std::uint8_t> data(4096, 0xAB);
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}},
      0, data).ok());
  ASSERT_TRUE(dev.CopyPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}},
      PhysAddr{ChannelId{1}, PlaneId{1}, BlockId{5}, PageId{0}}, 0).ok());
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(dev.ReadPage(PhysAddr{ChannelId{1}, PlaneId{1}, BlockId{5}, PageId{0}},
      1 * kSecond, out).ok());
  EXPECT_EQ(out, data);
}

TEST(FlashDeviceTest, EnduranceExhaustionMarksBlockBad) {
  FlashConfig c = TestConfig();
  c.timing.endurance_cycles = 3;
  FlashDevice dev(c);
  ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());
  ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());
  EXPECT_FALSE(dev.block_status(ChannelId{0}, PlaneId{0}, BlockId{0}).bad);
  ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());
  EXPECT_TRUE(dev.block_status(ChannelId{0}, PlaneId{0}, BlockId{0}).bad);
  EXPECT_EQ(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}},
      0).code(), ErrorCode::kBlockBad);
  EXPECT_EQ(dev.ReadPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}},
      0).code(), ErrorCode::kBlockBad);
  EXPECT_EQ(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).code(), ErrorCode::kBlockBad);
  EXPECT_EQ(dev.ComputeWear().bad_blocks, 1u);
}

TEST(FlashDeviceTest, EarlyFailureProbability) {
  FlashConfig c = TestConfig();
  c.early_failure_prob = 1.0;  // Every erase fails the block.
  FlashDevice dev(c);
  ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());
  EXPECT_TRUE(dev.block_status(ChannelId{0}, PlaneId{0}, BlockId{0}).bad);
}

TEST(FlashDeviceTest, StatsCountOps) {
  FlashDevice dev(TestConfig());
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0).ok());
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{1}}, 0).ok());
  ASSERT_TRUE(dev.ReadPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0).ok());
  ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());
  const FlashStats& s = dev.stats();
  EXPECT_EQ(s.host_pages_programmed, 2u);
  EXPECT_EQ(s.host_pages_read, 1u);
  EXPECT_EQ(s.blocks_erased, 1u);
  EXPECT_EQ(s.total_pages_programmed(), 2u);
  EXPECT_EQ(s.host_bus_bytes, 3u * 4096);
}

TEST(FlashDeviceTest, WearSummaryStatistics) {
  FlashDevice dev(TestConfig());
  ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());
  ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());
  ASSERT_TRUE(dev.EraseBlock(ChannelId{1}, PlaneId{1}, BlockId{5}, 0).ok());
  const WearSummary w = dev.ComputeWear();
  EXPECT_EQ(w.min_erase_count, 0u);
  EXPECT_EQ(w.max_erase_count, 2u);
  EXPECT_GT(w.mean_erase_count, 0.0);
  EXPECT_GT(w.stddev_erase_count, 0.0);
}

TEST(FlashDeviceTest, StoreDataOffReadsZeroes) {
  FlashConfig c = TestConfig();
  c.store_data = false;
  FlashDevice dev(c);
  std::vector<std::uint8_t> data(4096, 0x5A);
  ASSERT_TRUE(dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}},
      0, data).ok());
  std::vector<std::uint8_t> out(4096, 0xFF);
  ASSERT_TRUE(dev.ReadPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0, out).ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
}

TEST(FlashDeviceTest, PlaneBusyUntilAdvances) {
  FlashConfig c = TestConfig();
  FlashDevice dev(c);
  EXPECT_EQ(dev.PlaneBusyUntil(ChannelId{0}, PlaneId{0}), 0u);
  auto w = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 100);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(dev.PlaneBusyUntil(ChannelId{0}, PlaneId{0}), w.value());
  EXPECT_EQ(dev.PlaneBusyUntil(ChannelId{1}, PlaneId{0}), 0u);
}

// Property sweep: filling a whole plane sequentially always succeeds and counts correctly,
// for several geometries.
class FillPlaneTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FillPlaneTest, FillAndEraseWholePlane) {
  FlashConfig c = TestConfig();
  c.geometry.pages_per_block = GetParam();
  c.store_data = false;
  FlashDevice dev(c);
  const FlashGeometry& g = dev.geometry();
  SimTime t = 0;
  for (std::uint32_t b = 0; b < g.blocks_per_plane; ++b) {
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      auto w = dev.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{b}, PageId{p}}, t);
      ASSERT_TRUE(w.ok()) << "block " << b << " page " << p;
      t = w.value();
    }
  }
  EXPECT_EQ(dev.stats().host_pages_programmed,
            static_cast<std::uint64_t>(g.blocks_per_plane) * g.pages_per_block);
  for (std::uint32_t b = 0; b < g.blocks_per_plane; ++b) {
    ASSERT_TRUE(dev.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{b}, t).ok());
  }
  EXPECT_EQ(dev.stats().blocks_erased, g.blocks_per_plane);
}

INSTANTIATE_TEST_SUITE_P(Geometries, FillPlaneTest, ::testing::Values(8, 16, 32, 64));

}  // namespace
}  // namespace blockhead
