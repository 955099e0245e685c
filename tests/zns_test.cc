// Unit + property tests for the ZNS device: zone state machine, write-pointer rules, append,
// reset/finish, active/open limits, simple copy, capacity shrink on wear.

#include <gtest/gtest.h>

#include <vector>

#include "src/zns/zns_device.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

ZnsConfig DefaultZns() {
  ZnsConfig z;
  z.max_active_zones = 4;
  z.max_open_zones = 4;
  return z;
}

std::vector<std::uint8_t> Pattern(std::uint32_t page_size, std::uint8_t tag) {
  std::vector<std::uint8_t> v(page_size);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(tag ^ (i & 0xFF));
  }
  return v;
}

TEST(ZnsDeviceTest, GeometryDerivedZones) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  // Small: 64 blocks/plane, 1 block/zone/plane -> 64 zones; 4 planes * 32 pages = 128 pages.
  EXPECT_EQ(dev.num_zones(), 64u);
  EXPECT_EQ(dev.zone_size_pages(), 128u);
  EXPECT_EQ(dev.capacity_bytes(), 64ull * 128 * 4096);
  const ZoneDescriptor d = dev.zone(ZoneId{3});
  EXPECT_EQ(d.state, ZoneState::kEmpty);
  EXPECT_EQ(d.start_lba, Lba{3u * 128});
  EXPECT_EQ(d.capacity_pages, 128u);
  EXPECT_EQ(d.write_pointer, 0u);
}

TEST(ZnsDeviceTest, WriteAtWritePointerSucceeds) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  auto w = dev.Write(ZoneId{0}, 0, 4, 0);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(dev.zone(ZoneId{0}).write_pointer, 4u);
  EXPECT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kImplicitOpen);
  EXPECT_EQ(dev.active_zones(), 1u);
}

TEST(ZnsDeviceTest, WriteOffWritePointerFails) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  EXPECT_EQ(dev.Write(ZoneId{0}, 1, 1, 0).code(), ErrorCode::kWritePointerMismatch);
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 2, 0).ok());
  EXPECT_EQ(dev.Write(ZoneId{0}, 0, 1, 0).code(), ErrorCode::kWritePointerMismatch);
  EXPECT_EQ(dev.Write(ZoneId{0}, 3, 1, 0).code(), ErrorCode::kWritePointerMismatch);
  EXPECT_EQ(dev.stats().wp_mismatch_errors, 3u);
}

TEST(ZnsDeviceTest, ReadBackWrittenData) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const auto data = Pattern(4096, 0x42);
  auto w = dev.Write(ZoneId{2}, 0, 1, 0, data);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(4096);
  auto r = dev.Read(dev.zone(ZoneId{2}).start_lba, 1, w.value(), out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(ZnsDeviceTest, ReadBeyondWritePointerReturnsZeros) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0).ok());
  std::vector<std::uint8_t> out(4096, 0xFF);
  auto r = dev.Read(Lba{5}, 1, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
}

TEST(ZnsDeviceTest, ZoneFillsAndGoesFull) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const std::uint64_t cap = dev.zone(ZoneId{0}).capacity_pages;
  SimTime t = 0;
  for (std::uint64_t off = 0; off < cap; off += 8) {
    auto w = dev.Write(ZoneId{0}, off, 8, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kFull);
  EXPECT_EQ(dev.active_zones(), 0u) << "full zones do not consume active slots";
  EXPECT_EQ(dev.Write(ZoneId{0}, cap, 1, t).code(), ErrorCode::kZoneFull);
}

TEST(ZnsDeviceTest, WriteCrossingCapacityRejected) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const std::uint64_t cap = dev.zone(ZoneId{0}).capacity_pages;
  EXPECT_EQ(dev.Write(ZoneId{0}, 0, static_cast<std::uint32_t>(cap + 1), 0).code(),
            ErrorCode::kZoneFull);
}

TEST(ZnsDeviceTest, SequentialZoneWritesStripeAcrossPlanes) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  ZnsDevice dev(fc, DefaultZns());
  // Writing planes-many pages at once should take ~1 program (plus transfers), not planes.
  auto w = dev.Write(ZoneId{0}, 0, 4, 0);  // Small geometry has 4 planes.
  ASSERT_TRUE(w.ok());
  EXPECT_LT(w.value(), 2 * fc.timing.page_program);
}

TEST(ZnsDeviceTest, ResetReturnsZoneToEmptyAndErases) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const auto data = Pattern(4096, 1);
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0, data).ok());
  auto reset = dev.ResetZone(ZoneId{0}, 1 * kSecond);
  ASSERT_TRUE(reset.ok());
  EXPECT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kEmpty);
  EXPECT_EQ(dev.zone(ZoneId{0}).write_pointer, 0u);
  EXPECT_EQ(dev.active_zones(), 0u);
  EXPECT_EQ(dev.stats().zone_resets, 1u);
  // Old data is gone; zone accepts writes from offset 0 again.
  std::vector<std::uint8_t> out(4096, 0xFF);
  ASSERT_TRUE(dev.Read(Lba{0}, 1, reset.value(), out).ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
  EXPECT_TRUE(dev.Write(ZoneId{0}, 0, 1, reset.value()).ok());
}

TEST(ZnsDeviceTest, ResetOfEmptyZoneIsCheapNoErase) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  auto reset = dev.ResetZone(ZoneId{5}, 0);
  ASSERT_TRUE(reset.ok());
  EXPECT_EQ(dev.flash().stats().blocks_erased, 0u);
}

TEST(ZnsDeviceTest, FinishZoneJumpsWritePointer) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const auto data = Pattern(4096, 9);
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0, data).ok());
  ASSERT_TRUE(dev.FinishZone(ZoneId{0}, 0).ok());
  EXPECT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kFull);
  EXPECT_EQ(dev.zone(ZoneId{0}).write_pointer, dev.zone(ZoneId{0}).capacity_pages);
  EXPECT_EQ(dev.active_zones(), 0u);
  // Written prefix still readable; unwritten tail reads zeros.
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(dev.Read(Lba{0}, 1, 0, out).ok());
  EXPECT_EQ(out, data);
  std::vector<std::uint8_t> tail(4096, 0xFF);
  ASSERT_TRUE(dev.Read(Lba{10}, 1, 0, tail).ok());
  EXPECT_EQ(tail, std::vector<std::uint8_t>(4096, 0));
  // And writes to a full zone fail.
  EXPECT_EQ(dev.Write(ZoneId{0}, dev.zone(ZoneId{0}).capacity_pages, 1, 0).code(),
            ErrorCode::kZoneFull);
}

TEST(ZnsDeviceTest, ExplicitOpenCloseLifecycle) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  ASSERT_TRUE(dev.OpenZone(ZoneId{1}, 0).ok());
  EXPECT_EQ(dev.zone(ZoneId{1}).state, ZoneState::kExplicitOpen);
  EXPECT_EQ(dev.open_zones(), 1u);
  EXPECT_EQ(dev.active_zones(), 1u);
  ASSERT_TRUE(dev.CloseZone(ZoneId{1}, 0).ok());
  EXPECT_EQ(dev.zone(ZoneId{1}).state, ZoneState::kClosed);
  EXPECT_EQ(dev.open_zones(), 0u);
  EXPECT_EQ(dev.active_zones(), 1u) << "closed zones stay active";
  EXPECT_EQ(dev.CloseZone(ZoneId{1}, 0).code(), ErrorCode::kZoneNotOpen);
  // Writing to a closed zone implicitly reopens it.
  ASSERT_TRUE(dev.Write(ZoneId{1}, 0, 1, 0).ok());
  EXPECT_EQ(dev.zone(ZoneId{1}).state, ZoneState::kImplicitOpen);
  EXPECT_EQ(dev.open_zones(), 1u);
}

TEST(ZnsDeviceTest, ActiveZoneLimitEnforced) {
  ZnsConfig z = DefaultZns();
  z.max_active_zones = 2;
  z.max_open_zones = 2;
  ZnsDevice dev(SmallFlash(), z);
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0).ok());
  ASSERT_TRUE(dev.Write(ZoneId{1}, 0, 1, 0).ok());
  EXPECT_EQ(dev.Write(ZoneId{2}, 0, 1, 0).code(), ErrorCode::kTooManyActiveZones);
  EXPECT_EQ(dev.stats().active_limit_rejections, 1u);
  // Resetting one frees an active slot.
  ASSERT_TRUE(dev.ResetZone(ZoneId{0}, 0).ok());
  EXPECT_TRUE(dev.Write(ZoneId{2}, 0, 1, 0).ok());
}

TEST(ZnsDeviceTest, ClosedZonesHoldActiveSlotsButNotOpenSlots) {
  ZnsConfig z = DefaultZns();
  z.max_active_zones = 3;
  z.max_open_zones = 1;
  ZnsDevice dev(SmallFlash(), z);
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0).ok());
  EXPECT_EQ(dev.Write(ZoneId{1}, 0, 1, 0).code(), ErrorCode::kTooManyOpenZones);
  ASSERT_TRUE(dev.CloseZone(ZoneId{0}, 0).ok());
  ASSERT_TRUE(dev.Write(ZoneId{1}, 0, 1, 0).ok());
  ASSERT_TRUE(dev.CloseZone(ZoneId{1}, 0).ok());
  ASSERT_TRUE(dev.Write(ZoneId{2}, 0, 1, 0).ok());
  // 2 closed + 1 open = 3 active; a 4th zone cannot activate.
  EXPECT_EQ(dev.Write(ZoneId{3}, 0, 1, 0).code(), ErrorCode::kTooManyActiveZones);
}

TEST(ZnsDeviceTest, AppendAssignsSequentialAddresses) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  auto a1 = dev.Append(ZoneId{0}, 2, 0);
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->assigned_lba, dev.zone(ZoneId{0}).start_lba);
  auto a2 = dev.Append(ZoneId{0}, 3, 0);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->assigned_lba, dev.zone(ZoneId{0}).start_lba + 2);
  EXPECT_EQ(dev.zone(ZoneId{0}).write_pointer, 5u);
  EXPECT_EQ(dev.stats().pages_appended, 5u);
}

TEST(ZnsDeviceTest, ConcurrentWritesSerializeButAppendsPipeline) {
  // The §4.2 contention claim: N writers hitting one zone with regular writes serialize on the
  // write pointer; with append they pipeline across planes.
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();

  // Writes: each writer must wait for the previous completion to learn the write pointer.
  ZnsDevice wdev(fc, DefaultZns());
  SimTime write_finish = 0;
  std::uint64_t wp = 0;
  for (int writer = 0; writer < 8; ++writer) {
    // All writers "arrive" at t=0, but each can only issue once the previous write completed.
    auto w = wdev.Write(ZoneId{0}, wp, 1, 0);
    ASSERT_TRUE(w.ok());
    wp += 1;
    write_finish = std::max(write_finish, w.value());
  }

  // Appends: all issued at t=0; the device serializes ordering but programs pipeline.
  ZnsDevice adev(fc, DefaultZns());
  SimTime append_finish = 0;
  for (int writer = 0; writer < 8; ++writer) {
    auto a = adev.Append(ZoneId{0}, 1, 0);
    ASSERT_TRUE(a.ok());
    append_finish = std::max(append_finish, a->completion);
  }

  EXPECT_GT(write_finish, 3 * append_finish)
      << "appends from concurrent writers should pipeline across planes";
}

TEST(ZnsDeviceTest, SimpleCopyMovesDataWithoutHostBusTraffic) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const auto d0 = Pattern(4096, 1);
  const auto d1 = Pattern(4096, 2);
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0, d0).ok());
  ASSERT_TRUE(dev.Write(ZoneId{0}, 1, 1, 0, d1).ok());
  const std::uint64_t bus_before = dev.flash().stats().host_bus_bytes;

  CopyRange ranges[] = {{dev.zone(ZoneId{0}).start_lba, 1}, {dev.zone(ZoneId{0}).start_lba + 1, 1}};
  auto copy = dev.SimpleCopy(ranges, ZoneId{1}, 0);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(dev.flash().stats().host_bus_bytes, bus_before) << "simple copy must not use the bus";
  EXPECT_EQ(dev.stats().pages_copied, 2u);
  EXPECT_EQ(dev.zone(ZoneId{1}).write_pointer, 2u);

  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(dev.Read(dev.zone(ZoneId{1}).start_lba, 1, copy.value(), out).ok());
  EXPECT_EQ(out, d0);
  ASSERT_TRUE(dev.Read(dev.zone(ZoneId{1}).start_lba + 1, 1, copy.value(), out).ok());
  EXPECT_EQ(out, d1);
}

TEST(ZnsDeviceTest, SimpleCopySourceMustBeWritten) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0).ok());
  CopyRange bad[] = {{dev.zone(ZoneId{0}).start_lba + 50, 1}};
  EXPECT_EQ(dev.SimpleCopy(bad, ZoneId{1}, 0).code(), ErrorCode::kOutOfRange);
}

TEST(ZnsDeviceTest, WornZoneShrinksOnReset) {
  FlashConfig fc = SmallFlash();
  fc.timing.endurance_cycles = 2;  // Blocks die after 2 erases.
  ZnsDevice dev(fc, DefaultZns());
  const std::uint64_t cap0 = dev.zone(ZoneId{0}).capacity_pages;
  SimTime t = 0;
  // Fill + reset twice: after the second reset every block hit the endurance limit.
  for (int cycle = 0; cycle < 2; ++cycle) {
    const std::uint64_t cap = dev.zone(ZoneId{0}).capacity_pages;
    ASSERT_GT(cap, 0u);
    for (std::uint64_t off = 0; off < cap; ++off) {
      auto w = dev.Write(ZoneId{0}, off, 1, t);
      ASSERT_TRUE(w.ok());
      t = w.value();
    }
    auto r = dev.ResetZone(ZoneId{0}, t);
    ASSERT_TRUE(r.ok());
    t = r.value();
  }
  EXPECT_LT(dev.zone(ZoneId{0}).capacity_pages, cap0);
  EXPECT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kOffline);
}

TEST(ZnsDeviceTest, OfflineZoneRejectsEverything) {
  FlashConfig fc = SmallFlash();
  fc.timing.endurance_cycles = 1;
  ZnsDevice dev(fc, DefaultZns());
  SimTime t = 0;
  const std::uint64_t cap = dev.zone(ZoneId{0}).capacity_pages;
  for (std::uint64_t off = 0; off < cap; ++off) {
    auto w = dev.Write(ZoneId{0}, off, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  ASSERT_TRUE(dev.ResetZone(ZoneId{0}, t).ok());
  ASSERT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kOffline);
  EXPECT_EQ(dev.Write(ZoneId{0}, 0, 1, t).code(), ErrorCode::kZoneOffline);
  EXPECT_EQ(dev.Read(dev.zone(ZoneId{0}).start_lba, 1, t).code(), ErrorCode::kZoneOffline);
  EXPECT_EQ(dev.ResetZone(ZoneId{0}, t).code(), ErrorCode::kZoneOffline);
  EXPECT_EQ(dev.FinishZone(ZoneId{0}, t).code(), ErrorCode::kZoneOffline);
}

TEST(ZnsDeviceTest, DramUsageIsZoneGranular) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const DramUsage u = dev.ComputeDramUsage();
  EXPECT_EQ(u.mapping_bytes, dev.flash().geometry().total_blocks() * 4);
  EXPECT_EQ(u.gc_metadata_bytes, 0u);
  EXPECT_GT(u.write_buffer_bytes, 0u);
}

TEST(ZnsDeviceTest, ZoneStateNamesAreStable) {
  EXPECT_STREQ(ZoneStateName(ZoneState::kEmpty), "EMPTY");
  EXPECT_STREQ(ZoneStateName(ZoneState::kFull), "FULL");
  EXPECT_STREQ(ZoneStateName(ZoneState::kOffline), "OFFLINE");
}

TEST(ZnsDeviceTest, OutOfRangeZoneAndLba) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  EXPECT_EQ(dev.Write(ZoneId{999}, 0, 1, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.Append(ZoneId{999}, 1, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.Read(Lba{~0ULL}, 1, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.ResetZone(ZoneId{999}, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_FALSE(dev.ZoneOfLba(Lba{dev.num_zones() * dev.zone_size_pages()}).ok());
}


TEST(ZnsDeviceTest, NarrowStripeZonesPartitionPlanes) {
  // planes_per_zone = 2 on a 4-plane device: twice the zones, half the size, and zones in
  // different plane groups do not contend.
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  ZnsConfig z = DefaultZns();
  z.planes_per_zone = 2;
  ZnsDevice dev(fc, z);
  EXPECT_EQ(dev.num_zones(), 128u);      // 2 groups x 64 rows.
  EXPECT_EQ(dev.zone_size_pages(), 64u); // 2 planes x 32 pages.

  // Zone 0 (group 0) and zone 1 (group 1) use disjoint planes: concurrent writes overlap.
  auto w0 = dev.Write(ZoneId{0}, 0, 2, 0);
  auto w1 = dev.Write(ZoneId{1}, 0, 2, 0);
  ASSERT_TRUE(w0.ok());
  ASSERT_TRUE(w1.ok());
  // With buffered acks both return quickly; check the underlying plane usage instead: fill
  // zone 0 completely and verify zone 1's planes were never busied beyond their own writes.
  ZnsDevice dev2(fc, z);
  SimTime t = 0;
  for (std::uint64_t off = 0; off < dev2.zone(ZoneId{0}).capacity_pages; ++off) {
    auto w = dev2.Write(ZoneId{0}, off, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  // A read in zone 1's group sees an idle plane (no queueing behind zone 0 programs).
  auto r = dev2.Read(dev2.zone(ZoneId{1}).start_lba, 1, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value(), fc.timing.page_read + fc.timing.channel_xfer + 1000);
}

TEST(ZnsDeviceTest, NarrowStripeCapacityConserved) {
  for (const std::uint32_t width : {1u, 2u, 4u}) {
    ZnsConfig z = DefaultZns();
    z.planes_per_zone = width;
    ZnsDevice dev(SmallFlash(), z);
    EXPECT_EQ(static_cast<std::uint64_t>(dev.num_zones()) * dev.zone_size_pages(),
              dev.flash().geometry().total_pages())
        << "width " << width;
  }
}

TEST(ZnsDeviceTest, BufferedWriteAcksBeforeProgram) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  ZnsConfig z = DefaultZns();
  z.zone_write_buffer_pages = 8;
  ZnsDevice dev(fc, z);
  auto w = dev.Write(ZoneId{0}, 0, 1, 0);
  ASSERT_TRUE(w.ok());
  EXPECT_LT(w.value(), fc.timing.page_program) << "ack should come from the write buffer";
}

TEST(ZnsDeviceTest, WriteBufferBackpressure) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  // Sixteen chained writes, each issued at the previous ack (plus the device's write-pointer
  // serialization cost, ZnsDevice::kWpSyncOverhead); returns the last ack.
  auto last_ack_with_buffer = [&](std::uint32_t buffer_pages) {
    ZnsConfig z = DefaultZns();
    z.zone_write_buffer_pages = buffer_pages;
    ZnsDevice dev(fc, z);
    SimTime last_ack = 0;
    for (std::uint64_t off = 0; off < 16; ++off) {
      auto w = dev.Write(ZoneId{0}, off, 1, last_ack);
      EXPECT_TRUE(w.ok());
      last_ack = w.value();
    }
    return last_ack;
  };
  // A buffer that holds all sixteen pages acks every write before any cell program completes,
  // serialization cost included; a 2-page buffer makes the late acks wait for programs.
  EXPECT_LT(last_ack_with_buffer(16), fc.timing.page_program);
  EXPECT_GT(last_ack_with_buffer(2), fc.timing.page_program) << "a 2-page buffer must backpressure";
}

TEST(ZnsDeviceTest, UnbufferedWritesCompleteAtProgram) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  ZnsConfig z = DefaultZns();
  z.zone_write_buffer_pages = 0;
  ZnsDevice dev(fc, z);
  auto w = dev.Write(ZoneId{0}, 0, 1, 0);
  ASSERT_TRUE(w.ok());
  EXPECT_GE(w.value(), fc.timing.page_program);
}


TEST(ZnsDeviceTest, SimpleCopyMultiRangeGathersInOrder) {
  FlashConfig fc = SmallFlash();
  ZnsDevice dev(fc, DefaultZns());
  // Write three distinct pages into zone 0.
  for (std::uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        dev.Write(ZoneId{0}, i, 1, 0, Pattern(4096, static_cast<std::uint8_t>(i + 1))).ok());
  }
  // Gather pages 2 and 0 (in that order) into zone 1.
  const Lba base = dev.zone(ZoneId{0}).start_lba;
  CopyRange ranges[] = {{base + 2, 1}, {base + 0, 1}};
  auto copy = dev.SimpleCopy(ranges, ZoneId{1}, 0);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(dev.zone(ZoneId{1}).write_pointer, 2u);
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(dev.Read(dev.zone(ZoneId{1}).start_lba, 1, kSecond, out).ok());
  EXPECT_EQ(out, Pattern(4096, 3));  // Source page 2 first.
  ASSERT_TRUE(dev.Read(dev.zone(ZoneId{1}).start_lba + 1, 1, kSecond, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));  // Then source page 0.
}

TEST(ZnsDeviceTest, AppendCarriesPayload) {
  ZnsDevice dev(SmallFlash(), DefaultZns());
  const auto d0 = Pattern(4096, 0x11);
  const auto d1 = Pattern(4096, 0x22);
  std::vector<std::uint8_t> both;
  both.insert(both.end(), d0.begin(), d0.end());
  both.insert(both.end(), d1.begin(), d1.end());
  auto a = dev.Append(ZoneId{3}, 2, 0, both);
  ASSERT_TRUE(a.ok());
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(dev.Read(a->assigned_lba, 1, kSecond, out).ok());
  EXPECT_EQ(out, d0);
  ASSERT_TRUE(dev.Read(a->assigned_lba + 1, 1, kSecond, out).ok());
  EXPECT_EQ(out, d1);
}

TEST(ZnsDeviceTest, SimpleCopyRespectsActiveLimits) {
  ZnsConfig z = DefaultZns();
  z.max_active_zones = 1;
  z.max_open_zones = 1;
  ZnsDevice dev(SmallFlash(), z);
  ASSERT_TRUE(dev.Write(ZoneId{0}, 0, 1, 0).ok());
  // Zone 0 holds the only active slot; a simple copy into zone 1 must be rejected.
  const CopyRange range{dev.zone(ZoneId{0}).start_lba, 1};
  auto copy = dev.SimpleCopy(std::span<const CopyRange>(&range, 1), ZoneId{1}, 0);
  EXPECT_EQ(copy.code(), ErrorCode::kTooManyActiveZones);
}

// State-machine property: a randomized sequence of operations never violates the documented
// zone lifecycle (checked via the device's own accounting).
class ZoneStateMachineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZoneStateMachineTest, RandomOpsKeepInvariants) {
  ZnsConfig z = DefaultZns();
  z.max_active_zones = 3;
  z.max_open_zones = 2;
  ZnsDevice dev(SmallFlash(), z);
  Rng rng(GetParam());
  SimTime t = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t zone = static_cast<std::uint32_t>(rng.NextBelow(8));
    const ZoneDescriptor d = dev.zone(ZoneId{zone});
    switch (rng.NextBelow(5)) {
      case 0: {
        auto w = dev.Write(ZoneId{zone}, d.write_pointer, 1, t);
        if (w.ok()) {
          t = w.value();
        }
        break;
      }
      case 1: {
        auto a = dev.Append(ZoneId{zone}, 1, t);
        if (a.ok()) {
          t = a->completion;
        }
        break;
      }
      case 2:
        (void)dev.ResetZone(ZoneId{zone}, t);
        break;
      case 3:
        (void)dev.FinishZone(ZoneId{zone}, t);
        break;
      case 4:
        if (rng.NextBool(0.5)) {
          (void)dev.OpenZone(ZoneId{zone}, t);
        } else {
          (void)dev.CloseZone(ZoneId{zone}, t);
        }
        break;
    }
    // Invariants: counts within limits; per-zone wp <= capacity; full zones have wp == cap.
    ASSERT_LE(dev.open_zones(), z.max_open_zones);
    ASSERT_LE(dev.active_zones(), z.max_active_zones);
    std::uint32_t open = 0;
    std::uint32_t active = 0;
    for (std::uint32_t i = 0; i < dev.num_zones(); ++i) {
      const ZoneDescriptor zd = dev.zone(ZoneId{i});
      ASSERT_LE(zd.write_pointer, zd.capacity_pages);
      if (zd.state == ZoneState::kImplicitOpen || zd.state == ZoneState::kExplicitOpen) {
        ++open;
        ++active;
      } else if (zd.state == ZoneState::kClosed) {
        ++active;
      } else if (zd.state == ZoneState::kFull) {
        ASSERT_EQ(zd.write_pointer, zd.capacity_pages);
      }
    }
    ASSERT_EQ(open, dev.open_zones());
    ASSERT_EQ(active, dev.active_zones());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneStateMachineTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(ZnsConfigTest, ValidateRejectsZoneWidthsThatDoNotFitThePlanes) {
  const FlashGeometry g = FlashGeometry::Small();  // 4 planes.
  ZnsConfig z;
  for (const std::uint32_t width : {0u, 1u, 2u, 4u}) {
    z.planes_per_zone = width;
    EXPECT_TRUE(z.Validate(g).ok()) << "width " << width;
  }
  z.planes_per_zone = 3;
  EXPECT_EQ(z.Validate(g).code(), ErrorCode::kInvalidArgument);
  z.planes_per_zone = 8;
  EXPECT_EQ(z.Validate(g).code(), ErrorCode::kInvalidArgument);
}

TEST(ZnsDeviceDeathTest, ZoneWidthNotDividingThePlanesAborts) {
  ZnsConfig z = DefaultZns();
  z.planes_per_zone = 3;  // Would leave one of Small's 4 planes unused.
  EXPECT_DEATH(ZnsDevice(SmallFlash(), z), "planes_per_zone must divide the plane count");
}

TEST(ZnsDeviceDeathTest, ZoneWiderThanTheDeviceAborts) {
  ZnsConfig z = DefaultZns();
  z.planes_per_zone = 8;  // Would give a device with no zones.
  EXPECT_DEATH(ZnsDevice(SmallFlash(), z), "planes_per_zone must divide the plane count");
}

}  // namespace
}  // namespace blockhead
