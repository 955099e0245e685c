// Unit tests for the NAND flash substrate: addressing, program-order enforcement,
// erase-before-program, timing/parallelism, wear and bad blocks, data integrity, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/telemetry/sink.h"

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

// CopyPage is one call with exactly the effects of ReadPage(src, kInternal) followed by
// ProgramPage(dst, kInternal) at the read's completion: results and error codes, SimTime,
// stats, plane bookings, timeline slices, provenance, the maintenance marks later host ops
// stall behind, and the copied bytes.
TEST(FlashDeviceTest, CopyPageMatchesReadThenProgram) {
  FlashConfig c = TestConfig();
  c.timing.endurance_cycles = 2;  // Two erases make a block bad.
  Telemetry fused_tel;
  Telemetry pair_tel;
  FlashDevice fused(c);
  FlashDevice pair(c);
  fused.AttachTelemetry(&fused_tel);
  pair.AttachTelemetry(&pair_tel);
  fused_tel.timeline.Enable();
  pair_tel.timeline.Enable();

  const auto addr = [](std::uint32_t ch, std::uint32_t pl, std::uint32_t b, std::uint32_t p) {
    return PhysAddr{ChannelId{ch}, PlaneId{pl}, BlockId{b}, PageId{p}};
  };
  for (FlashDevice* dev : {&fused, &pair}) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      const std::vector<std::uint8_t> data(4096, static_cast<std::uint8_t>(p + 1));
      ASSERT_TRUE(dev->ProgramPage(addr(0, 0, 0, p), 0, data).ok());
    }
    for (int e = 0; e < 2; ++e) {
      ASSERT_TRUE(dev->EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{7}, 0).ok());
      ASSERT_TRUE(dev->EraseBlock(ChannelId{1}, PlaneId{1}, BlockId{7}, 0).ok());
    }
  }

  struct Copy {
    PhysAddr src;
    PhysAddr dst;
    SimTime issue;
    ErrorCode want;
  };
  const std::vector<Copy> copies = {
      {addr(0, 0, 0, 0), addr(1, 0, 4, 0), 0, ErrorCode::kOk},
      {addr(0, 0, 0, 1), addr(1, 0, 4, 1), 0, ErrorCode::kOk},
      {addr(0, 0, 7, 0), addr(1, 0, 4, 2), 10, ErrorCode::kBlockBad},        // Bad source.
      {addr(0, 0, 0, 2), addr(1, 1, 7, 0), 20, ErrorCode::kBlockBad},        // Bad destination.
      {addr(0, 0, 0, 2), addr(1, 0, 4, 5), 30, ErrorCode::kProgramOrderViolation},
      {addr(0, 0, 0, 2), addr(1, 0, 4, 0), 40, ErrorCode::kEraseBeforeProgram},
      {addr(9, 0, 0, 0), addr(1, 0, 4, 2), 50, ErrorCode::kOutOfRange},
      {addr(0, 0, 0, 2), addr(1, 0, 99, 0), 60, ErrorCode::kOutOfRange},
      {addr(0, 0, 0, 9), addr(1, 0, 4, 2), 70, ErrorCode::kOk},  // Never programmed: zeroes.
      {addr(0, 0, 0, 3), addr(1, 1, 2, 0), 1 * kSecond, ErrorCode::kOk},
  };
  for (std::size_t i = 0; i < copies.size(); ++i) {
    const Copy& cp = copies[i];
    const Result<SimTime> one = fused.CopyPage(cp.src, cp.dst, cp.issue);
    std::vector<std::uint8_t> buf(4096);
    Result<SimTime> two = pair.ReadPage(cp.src, cp.issue, buf, OpClass::kInternal);
    if (two.ok()) {
      two = pair.ProgramPage(cp.dst, two.value(), buf, OpClass::kInternal);
    }
    EXPECT_EQ(one.code(), cp.want) << "copy " << i;
    ASSERT_EQ(one.code(), two.code()) << "copy " << i;
    if (one.ok()) {
      EXPECT_EQ(one.value(), two.value()) << "copy " << i;
    }
  }

  // A host read on each copy plane, inside a span: its GC-stall share depends on the plane's
  // last maintenance mark.
  for (auto [dev, tel] : {std::pair{&fused, &fused_tel}, std::pair{&pair, &pair_tel}}) {
    Tracer::Span span = Tracer::Start(tel->tracer.Intern("probe"), 0);
    SimTime done = 0;
    for (const PhysAddr& a : {addr(0, 0, 0, 0), addr(1, 0, 4, 0), addr(1, 1, 2, 0)}) {
      const Result<SimTime> r = dev->ReadPage(a, 0);
      ASSERT_TRUE(r.ok());
      done = std::max(done, r.value());
    }
    span.End(done);
  }

  const FlashStats& fs = fused.stats();
  const FlashStats& ps = pair.stats();
  EXPECT_EQ(fs.internal_pages_read, ps.internal_pages_read);
  EXPECT_EQ(fs.internal_pages_programmed, ps.internal_pages_programmed);
  EXPECT_EQ(fs.internal_pages_read, 8u);  // Every copy whose source checks out reads it.
  EXPECT_EQ(fs.internal_pages_programmed, 4u);
  for (std::uint32_t ch = 0; ch < c.geometry.channels; ++ch) {
    for (std::uint32_t pl = 0; pl < c.geometry.planes_per_channel; ++pl) {
      EXPECT_EQ(fused.PlaneBusyUntil(ChannelId{ch}, PlaneId{pl}),
                pair.PlaneBusyUntil(ChannelId{ch}, PlaneId{pl}));
    }
  }
  EXPECT_EQ(fused_tel.timeline.ExportChromeTrace(), pair_tel.timeline.ExportChromeTrace());
  std::string fused_metrics;
  std::string pair_metrics;
  JsonLinesSink().Render("copy", fused_tel.registry.Snapshot(), &fused_metrics);
  JsonLinesSink().Render("copy", pair_tel.registry.Snapshot(), &pair_metrics);
  EXPECT_EQ(fused_metrics, pair_metrics);

  const std::vector<std::pair<PhysAddr, std::uint8_t>> copied = {
      {addr(1, 0, 4, 0), 1}, {addr(1, 0, 4, 1), 2}, {addr(1, 0, 4, 2), 0}, {addr(1, 1, 2, 0), 4}};
  for (const auto& [a, fill] : copied) {
    std::vector<std::uint8_t> out(4096, 0xFF);
    ASSERT_TRUE(fused.ReadPage(a, 2 * kSecond, out).ok());
    EXPECT_EQ(out, std::vector<std::uint8_t>(4096, fill));
    EXPECT_EQ(fused.block_status(a.channel, a.plane, a.block).next_page,
              pair.block_status(a.channel, a.plane, a.block).next_page);
  }
  fused.AttachTelemetry(nullptr);
  pair.AttachTelemetry(nullptr);
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
