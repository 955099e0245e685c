// Tests for the ZenFS-style zoned filesystem: file CRUD, append/read across page and extent
// boundaries, sync/durability semantics, lifetime-hint placement, zone compaction, crash
// recovery via the metadata journal.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/zonefile/zone_file_system.h"

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
  z.max_active_zones = 10;
  z.max_open_zones = 10;
  return z;
}

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  Rng rng(seed);
  for (auto& b : v) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return v;
}

class ZoneFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<ZnsDevice>(SmallFlash(), DeviceConfig());
    auto fs = ZoneFileSystem::Format(device_.get(), ZoneFileConfig{}, 0);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  std::unique_ptr<ZnsDevice> device_;
  std::unique_ptr<ZoneFileSystem> fs_;
};

TEST_F(ZoneFileTest, CreateExistsDelete) {
  EXPECT_FALSE(fs_->Exists("a"));
  ASSERT_TRUE(fs_->Create("a", Lifetime::kShort, 0).ok());
  EXPECT_TRUE(fs_->Exists("a"));
  EXPECT_EQ(fs_->Create("a", Lifetime::kShort, 0).code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs_->FileHint("a").value(), Lifetime::kShort);
  EXPECT_EQ(fs_->FileSize("a").value(), 0u);
  ASSERT_TRUE(fs_->Delete("a", 0).ok());
  EXPECT_FALSE(fs_->Exists("a"));
  EXPECT_EQ(fs_->Delete("a", 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs_->FileSize("a").code(), ErrorCode::kNotFound);
}

TEST_F(ZoneFileTest, ListFiles) {
  ASSERT_TRUE(fs_->Create("kiwi", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Create("apple", Lifetime::kNone, 0).ok());
  const auto files = fs_->ListFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "apple");
  EXPECT_EQ(files[1], "kiwi");
}

TEST_F(ZoneFileTest, AppendAndReadSmall) {
  ASSERT_TRUE(fs_->Create("f", Lifetime::kMedium, 0).ok());
  const auto data = Bytes(100, 1);
  ASSERT_TRUE(fs_->Append("f", data, 0).ok());
  EXPECT_EQ(fs_->FileSize("f").value(), 100u);
  std::vector<std::uint8_t> out(100);
  ASSERT_TRUE(fs_->Read("f", 0, out, 0).ok());
  EXPECT_EQ(out, data);  // Served from the in-memory tail.
}

TEST_F(ZoneFileTest, AppendAcrossPageBoundaries) {
  ASSERT_TRUE(fs_->Create("f", Lifetime::kMedium, 0).ok());
  const auto data = Bytes(3 * 4096 + 123, 2);
  ASSERT_TRUE(fs_->Append("f", data, 0).ok());
  EXPECT_EQ(fs_->FileSize("f").value(), data.size());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(fs_->Read("f", 0, out, 0).ok());
  EXPECT_EQ(out, data);
  // Partial reads at odd offsets.
  std::vector<std::uint8_t> mid(1000);
  ASSERT_TRUE(fs_->Read("f", 4000, mid, 0).ok());
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), data.begin() + 4000));
}

TEST_F(ZoneFileTest, ManySmallAppendsAccumulate) {
  ASSERT_TRUE(fs_->Create("log", Lifetime::kShort, 0).ok());
  std::vector<std::uint8_t> all;
  SimTime t = 0;
  for (int i = 0; i < 100; ++i) {
    const auto chunk = Bytes(97, static_cast<std::uint64_t>(i) + 10);
    auto a = fs_->Append("log", chunk, t);
    ASSERT_TRUE(a.ok());
    t = a.value();
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(fs_->FileSize("log").value(), all.size());
  std::vector<std::uint8_t> out(all.size());
  ASSERT_TRUE(fs_->Read("log", 0, out, t).ok());
  EXPECT_EQ(out, all);
}

TEST_F(ZoneFileTest, ReadPastEndRejected) {
  ASSERT_TRUE(fs_->Create("f", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Append("f", Bytes(10, 3), 0).ok());
  std::vector<std::uint8_t> out(11);
  EXPECT_EQ(fs_->Read("f", 0, out, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(fs_->Read("f", 5, std::span<std::uint8_t>(out.data(), 6), 0).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(fs_->Read("missing", 0, out, 0).code(), ErrorCode::kNotFound);
}

TEST_F(ZoneFileTest, SyncPadsAndAppendsContinueCorrectly) {
  ASSERT_TRUE(fs_->Create("f", Lifetime::kLong, 0).ok());
  const auto first = Bytes(5000, 4);
  const auto second = Bytes(7000, 5);
  ASSERT_TRUE(fs_->Append("f", first, 0).ok());
  ASSERT_TRUE(fs_->Sync("f", 0).ok());  // Pads the 904-byte tail into a full page.
  ASSERT_TRUE(fs_->Append("f", second, 0).ok());
  ASSERT_TRUE(fs_->Sync("f", 0).ok());
  std::vector<std::uint8_t> out(12000);
  ASSERT_TRUE(fs_->Read("f", 0, out, 0).ok());
  std::vector<std::uint8_t> expect = first;
  expect.insert(expect.end(), second.begin(), second.end());
  EXPECT_EQ(out, expect);
}

TEST_F(ZoneFileTest, LifetimeHintsSeparateZones) {
  // Two files with different hints must never share a zone.
  ASSERT_TRUE(fs_->Create("short", Lifetime::kShort, 0).ok());
  ASSERT_TRUE(fs_->Create("long", Lifetime::kLong, 0).ok());
  SimTime t = 0;
  for (int i = 0; i < 8; ++i) {
    auto a = fs_->Append("short", Bytes(4096, 20 + static_cast<std::uint64_t>(i)), t);
    ASSERT_TRUE(a.ok());
    auto b = fs_->Append("long", Bytes(4096, 40 + static_cast<std::uint64_t>(i)), a.value());
    ASSERT_TRUE(b.ok());
    t = b.value();
  }
  ASSERT_TRUE(fs_->Sync("short", t).ok());
  ASSERT_TRUE(fs_->Sync("long", t).ok());
  // Verify by re-reading both fully.
  std::vector<std::uint8_t> s(8 * 4096);
  std::vector<std::uint8_t> l(8 * 4096);
  ASSERT_TRUE(fs_->Read("short", 0, s, t).ok());
  ASSERT_TRUE(fs_->Read("long", 0, l, t).ok());
  EXPECT_TRUE(fs_->CheckConsistency().ok());
}

TEST_F(ZoneFileTest, DeleteThenChurnTriggersCompaction) {
  SimTime t = 0;
  Rng rng(6);
  // Create/delete files of a page each until zones must be reclaimed.
  int generation = 0;
  std::vector<std::string> live_files;
  for (int i = 0; i < 3000; ++i) {
    const std::string name = "f" + std::to_string(generation++);
    auto c = fs_->Create(name, Lifetime::kNone, t);
    ASSERT_TRUE(c.ok()) << c.status().ToString() << " at i=" << i;
    auto a = fs_->Append(name, Bytes(4096, static_cast<std::uint64_t>(i)), t);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(fs_->Sync(name, t).ok());
    t = a.value();
    live_files.push_back(name);
    // Keep ~32 files alive.
    if (live_files.size() > 32) {
      const std::size_t idx = rng.NextBelow(live_files.size());
      ASSERT_TRUE(fs_->Delete(live_files[idx], t).ok());
      live_files.erase(live_files.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  EXPECT_GT(fs_->stats().gc_cycles + fs_->stats().checkpoints, 0u);
  EXPECT_TRUE(fs_->CheckConsistency().ok());
  // All surviving files still intact.
  for (const auto& name : live_files) {
    std::vector<std::uint8_t> out(4096);
    ASSERT_TRUE(fs_->Read(name, 0, out, t).ok());
  }
}

TEST_F(ZoneFileTest, CompactionPreservesContent) {
  // Interleave two files in the same (None) class so zones hold both; delete one so the zone
  // is half-dead; force compaction; the survivor must be byte-identical.
  // Re-format with an eager scheduler so Pump compacts without space pressure.
  ZoneFileConfig eager;
  eager.sched.low_free_fraction = 1.0;
  {
    auto fs = ZoneFileSystem::Format(device_.get(), eager, 0);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
  }
  ASSERT_TRUE(fs_->Create("dead", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Create("live", Lifetime::kNone, 0).ok());
  std::vector<std::uint8_t> live_content;
  SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    auto chunk = Bytes(4096, 100 + static_cast<std::uint64_t>(i));
    auto a = fs_->Append("dead", Bytes(4096, 999), t);
    ASSERT_TRUE(a.ok());
    auto b = fs_->Append("live", chunk, a.value());
    ASSERT_TRUE(b.ok());
    t = b.value();
    live_content.insert(live_content.end(), chunk.begin(), chunk.end());
  }
  ASSERT_TRUE(fs_->Sync("dead", t).ok());
  ASSERT_TRUE(fs_->Sync("live", t).ok());
  ASSERT_TRUE(fs_->Delete("dead", t).ok());
  // Compact everything reclaimable.
  std::uint32_t total = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t ran = fs_->Pump(t, false, 1);
    if (ran == 0) {
      break;
    }
    total += ran;
  }
  EXPECT_GT(total, 0u) << "half-dead zones should be compacted";
  EXPECT_GT(fs_->stats().gc_pages_copied, 0u);
  std::vector<std::uint8_t> out(live_content.size());
  ASSERT_TRUE(fs_->Read("live", 0, out, t).ok());
  EXPECT_EQ(out, live_content);
  EXPECT_TRUE(fs_->CheckConsistency().ok());
}

// A kGcCycle event reports the pages copied in its own cycle, even when an earlier cycle ran
// with telemetry detached and telemetry was attached while the victim was already pending.
TEST_F(ZoneFileTest, GcCycleEventCountsOnlyItsOwnCopies) {
  ZoneFileConfig eager;
  eager.sched.low_free_fraction = 1.0;
  {
    auto fs = ZoneFileSystem::Format(device_.get(), eager, 0);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
  }
  // Interleave a dead and a live file over three zones, so every sealed zone is half live.
  ASSERT_TRUE(fs_->Create("dead", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Create("live", Lifetime::kNone, 0).ok());
  SimTime t = 0;
  const std::uint64_t zone_pages = device_->zone_size_pages();
  for (std::uint64_t i = 0; i < 3 * zone_pages / 2; ++i) {
    auto a = fs_->Append("dead", Bytes(4096, 1), t);
    ASSERT_TRUE(a.ok());
    auto b = fs_->Append("live", Bytes(4096, 2), a.value());
    ASSERT_TRUE(b.ok());
    t = b.value();
  }
  ASSERT_TRUE(fs_->Sync("dead", t).ok());
  ASSERT_TRUE(fs_->Sync("live", t).ok());
  ASSERT_TRUE(fs_->Delete("dead", t).ok());

  // First cycle, detached.
  for (int i = 0; i < 1000 && fs_->stats().gc_cycles == 0; ++i) {
    ASSERT_EQ(fs_->Pump(t, false, 1), 1u);
  }
  ASSERT_EQ(fs_->stats().gc_cycles, 1u);
  const std::uint64_t copied_before_second = fs_->stats().gc_pages_copied;
  ASSERT_GT(copied_before_second, 0u);
  // One step of the second cycle, still detached: its victim is now pending.
  ASSERT_EQ(fs_->Pump(t, false, 1), 1u);
  ASSERT_EQ(fs_->stats().gc_cycles, 1u);
  ASSERT_GT(fs_->stats().gc_pages_copied, copied_before_second);

  Telemetry tel;
  fs_->AttachTelemetry(&tel);
  for (int i = 0; i < 1000 && fs_->stats().gc_cycles == 1; ++i) {
    ASSERT_EQ(fs_->Pump(t, false, 1), 1u);
  }
  ASSERT_EQ(fs_->stats().gc_cycles, 2u);
  const std::vector<TimelineEvent> cycles = tel.events.Page(TimelineEventType::kGcCycle);
  ASSERT_EQ(cycles.size(), 1u);
  const std::uint64_t copied = fs_->stats().gc_pages_copied - copied_before_second;
  EXPECT_EQ(cycles[0].arg1, copied);
  EXPECT_NE(cycles[0].detail.find(" copied " + std::to_string(copied)), std::string::npos)
      << cycles[0].detail;
  fs_->AttachTelemetry(nullptr);
  EXPECT_TRUE(fs_->CheckConsistency().ok());
}

TEST_F(ZoneFileTest, MountRecoversSyncedData) {
  const auto data = Bytes(10000, 7);
  ASSERT_TRUE(fs_->Create("persist", Lifetime::kMedium, 0).ok());
  ASSERT_TRUE(fs_->Append("persist", data, 0).ok());
  ASSERT_TRUE(fs_->Sync("persist", 0).ok());
  fs_.reset();  // "Crash": drop all in-memory state; the device retains its contents.

  auto remounted = ZoneFileSystem::Mount(device_.get(), ZoneFileConfig{}, 1 * kSecond);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  auto& fs = *remounted.value();
  ASSERT_TRUE(fs.Exists("persist"));
  EXPECT_EQ(fs.FileSize("persist").value(), data.size());
  EXPECT_EQ(fs.FileHint("persist").value(), Lifetime::kMedium);
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(fs.Read("persist", 0, out, 2 * kSecond).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(fs.CheckConsistency().ok());
}

TEST_F(ZoneFileTest, MountDropsUnsyncedTail) {
  ASSERT_TRUE(fs_->Create("f", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Append("f", Bytes(4096, 8), 0).ok());
  ASSERT_TRUE(fs_->Sync("f", 0).ok());
  ASSERT_TRUE(fs_->Append("f", Bytes(5000, 9), 0).ok());  // Never synced.
  fs_.reset();

  auto remounted = ZoneFileSystem::Mount(device_.get(), ZoneFileConfig{}, 0);
  ASSERT_TRUE(remounted.ok());
  EXPECT_EQ(remounted.value()->FileSize("f").value(), 4096u)
      << "unsynced bytes must be rolled back";
}

TEST_F(ZoneFileTest, MountRecoversDeletes) {
  ASSERT_TRUE(fs_->Create("gone", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Append("gone", Bytes(4096, 10), 0).ok());
  ASSERT_TRUE(fs_->Sync("gone", 0).ok());
  ASSERT_TRUE(fs_->Delete("gone", 0).ok());
  ASSERT_TRUE(fs_->Create("kept", Lifetime::kNone, 0).ok());
  fs_.reset();

  auto remounted = ZoneFileSystem::Mount(device_.get(), ZoneFileConfig{}, 0);
  ASSERT_TRUE(remounted.ok());
  EXPECT_FALSE(remounted.value()->Exists("gone"));
  EXPECT_TRUE(remounted.value()->Exists("kept"));
}

TEST_F(ZoneFileTest, MountSurvivesJournalCheckpointCycles) {
  // Enough metadata traffic to force several checkpoint swaps, then verify a mount.
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string name = "n" + std::to_string(i);
    ASSERT_TRUE(fs_->Create(name, Lifetime::kNone, t).ok());
    ASSERT_TRUE(fs_->Append(name, Bytes(128, static_cast<std::uint64_t>(i)), t).ok());
    ASSERT_TRUE(fs_->Sync(name, t).ok());
    if (i >= 10) {
      ASSERT_TRUE(fs_->Delete("n" + std::to_string(i - 10), t).ok());
    }
  }
  ASSERT_GT(fs_->stats().checkpoints, 0u) << "test must exercise checkpoint swaps";
  fs_.reset();

  auto remounted = ZoneFileSystem::Mount(device_.get(), ZoneFileConfig{}, 0);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  auto& fs = *remounted.value();
  EXPECT_EQ(fs.ListFiles().size(), 10u);
  for (int i = 390; i < 400; ++i) {
    EXPECT_TRUE(fs.Exists("n" + std::to_string(i)));
  }
  EXPECT_TRUE(fs.CheckConsistency().ok());
}

TEST_F(ZoneFileTest, MountedFilesystemRemainsWritable) {
  ASSERT_TRUE(fs_->Create("f", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Append("f", Bytes(4096, 11), 0).ok());
  ASSERT_TRUE(fs_->Sync("f", 0).ok());
  fs_.reset();

  auto remounted = ZoneFileSystem::Mount(device_.get(), ZoneFileConfig{}, 0);
  ASSERT_TRUE(remounted.ok());
  auto& fs = *remounted.value();
  const auto more = Bytes(8192, 12);
  ASSERT_TRUE(fs.Append("f", more, 0).ok());
  ASSERT_TRUE(fs.Sync("f", 0).ok());
  EXPECT_EQ(fs.FileSize("f").value(), 4096u + 8192u);
  std::vector<std::uint8_t> out(8192);
  ASSERT_TRUE(fs.Read("f", 4096, out, 0).ok());
  EXPECT_EQ(out, more);
  EXPECT_TRUE(fs.CheckConsistency().ok());
}

TEST_F(ZoneFileTest, MountOnUnformattedDeviceFails) {
  ZnsDevice fresh(SmallFlash(), DeviceConfig());
  auto mounted = ZoneFileSystem::Mount(&fresh, ZoneFileConfig{}, 0);
  EXPECT_FALSE(mounted.ok());
  EXPECT_EQ(mounted.code(), ErrorCode::kNotFound);
}


TEST_F(ZoneFileTest, ManyExtentFileSurvivesMultiPageJournalRecord) {
  // A file with hundreds of non-contiguous extents produces a journal record larger than one
  // metadata page (multi-part blob) — it must replay correctly.
  ASSERT_TRUE(fs_->Create("frag", Lifetime::kShort, 0).ok());
  ASSERT_TRUE(fs_->Create("other", Lifetime::kShort, 0).ok());
  SimTime t = 0;
  // Alternate single-page appends between two files in the same class: extents cannot merge.
  for (int i = 0; i < 400; ++i) {
    auto a = fs_->Append("frag", Bytes(4096, 1000 + static_cast<std::uint64_t>(i)), t);
    ASSERT_TRUE(a.ok());
    auto b = fs_->Append("other", Bytes(4096, 5000 + static_cast<std::uint64_t>(i)), a.value());
    ASSERT_TRUE(b.ok());
    t = b.value();
  }
  ASSERT_TRUE(fs_->Sync("frag", t).ok());
  ASSERT_TRUE(fs_->Sync("other", t).ok());
  fs_.reset();

  auto remounted = ZoneFileSystem::Mount(device_.get(), ZoneFileConfig{}, 0);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  auto& fs = *remounted.value();
  ASSERT_EQ(fs.FileSize("frag").value(), 400u * 4096);
  // Spot-check interleaved content.
  std::vector<std::uint8_t> out(4096);
  for (int i = 0; i < 400; i += 37) {
    ASSERT_TRUE(fs.Read("frag", static_cast<std::uint64_t>(i) * 4096, out, 0).ok());
    ASSERT_EQ(out, Bytes(4096, 1000 + static_cast<std::uint64_t>(i))) << i;
  }
  EXPECT_TRUE(fs.CheckConsistency().ok());
}

TEST_F(ZoneFileTest, LargeCheckpointSpansPagesAndReplays) {
  // Many files with long names: the checkpoint blob exceeds one page and must be written and
  // replayed as a multi-part blob.
  SimTime t = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string name(120, static_cast<char>('a' + i % 26));
    const std::string unique = name + std::to_string(i);
    ASSERT_TRUE(fs_->Create(unique, Lifetime::kLong, t).ok());
    ASSERT_TRUE(fs_->Append(unique, Bytes(512, static_cast<std::uint64_t>(i)), t).ok());
    ASSERT_TRUE(fs_->Sync(unique, t).ok());
  }
  // Force checkpoint swaps by exhausting the metadata zone with further journal traffic.
  for (int i = 0; i < 200; ++i) {
    const std::string name = "churn" + std::to_string(i);
    ASSERT_TRUE(fs_->Create(name, Lifetime::kShort, t).ok());
    ASSERT_TRUE(fs_->Delete(name, t).ok());
  }
  ASSERT_GT(fs_->stats().checkpoints, 0u);
  fs_.reset();

  auto remounted = ZoneFileSystem::Mount(device_.get(), ZoneFileConfig{}, 0);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  EXPECT_EQ(remounted.value()->ListFiles().size(), 120u);
  EXPECT_TRUE(remounted.value()->CheckConsistency().ok());
}

TEST_F(ZoneFileTest, GcRecordReplayTrimsUnsyncedExtents) {
  // Regression (found by the differential fuzzer): compaction journals full extent maps that
  // may include unsynced data; replay must trim to the synced prefix.
  ZoneFileConfig eager;
  eager.sched.low_free_fraction = 1.0;
  {
    auto fs = ZoneFileSystem::Format(device_.get(), eager, 0);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
  }
  ASSERT_TRUE(fs_->Create("dead", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(fs_->Create("mixed", Lifetime::kNone, 0).ok());
  SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    auto a = fs_->Append("dead", Bytes(4096, 9), t);
    ASSERT_TRUE(a.ok());
    auto b = fs_->Append("mixed", Bytes(4096, 10 + static_cast<std::uint64_t>(i)), a.value());
    ASSERT_TRUE(b.ok());
    t = b.value();
  }
  // Sync only HALF of "mixed"'s bytes... sync then append more unsynced pages.
  ASSERT_TRUE(fs_->Sync("mixed", t).ok());
  ASSERT_TRUE(fs_->Sync("dead", t).ok());
  for (int i = 0; i < 16; ++i) {
    auto a = fs_->Append("mixed", Bytes(4096, 200), t);
    ASSERT_TRUE(a.ok());
    t = a.value();
  }
  ASSERT_TRUE(fs_->Delete("dead", t).ok());
  // Compaction relocates "mixed" (including its unsynced pages) and journals the new map.
  std::uint32_t ran = 0;
  for (int i = 0; i < 128 && fs_->Pump(t, false, 1) > 0; ++i) {
    ++ran;
  }
  ASSERT_GT(ran, 0u);
  fs_.reset();

  auto remounted = ZoneFileSystem::Mount(device_.get(), eager, 0);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  auto& fs = *remounted.value();
  EXPECT_EQ(fs.FileSize("mixed").value(), 64u * 4096) << "unsynced tail must roll back";
  EXPECT_TRUE(fs.CheckConsistency().ok());
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(fs.Read("mixed", 20 * 4096, out, 0).ok());
  EXPECT_EQ(out, Bytes(4096, 30));
}

// FNV-1a over every written page of both metadata zones.
std::uint64_t MetaZoneHash(ZnsDevice& device) {
  std::uint64_t h = 1469598103934665603ULL;
  std::vector<std::uint8_t> page(device.page_size());
  for (const std::uint32_t z : {0u, 1u}) {
    const ZoneDescriptor d = device.zone(ZoneId{z});
    for (std::uint64_t p = 0; p < d.write_pointer; ++p) {
      EXPECT_TRUE(device.Read(d.start_lba + p, 1, 0, page).ok());
      for (const std::uint8_t b : page) {
        h = (h ^ b) * 1099511628211ULL;
      }
    }
  }
  return h;
}

// Pins the journal's on-media bytes for a fixed file set: a compaction cycle's batch blob,
// then the checkpoint a meta-zone swap writes and the batch of a second cycle behind it. The
// files cover every lifetime class and a file of ~250 extents, so each blob spans two pages.
TEST_F(ZoneFileTest, JournalBytesArePinned) {
  ZoneFileConfig eager;
  eager.sched.low_free_fraction = 1.0;
  {
    auto fs = ZoneFileSystem::Format(device_.get(), eager, 0);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
  }
  SimTime t = 0;
  for (std::uint32_t c = 0; c < kLifetimeClasses; ++c) {
    const std::string name = "class" + std::to_string(c) + std::string(c * 7, 'x');
    ASSERT_TRUE(fs_->Create(name, static_cast<Lifetime>(c), t).ok());
    ASSERT_TRUE(fs_->Append(name, Bytes(1000 + 3000 * c, c), t).ok());
    ASSERT_TRUE(fs_->Sync(name, t).ok());
  }
  // Interleave a dead and a live file so sealed zones are half live, with a sync every few
  // pages so "live" holds many padded extents.
  ASSERT_TRUE(fs_->Create("dead", Lifetime::kNone, t).ok());
  ASSERT_TRUE(fs_->Create("live", Lifetime::kNone, t).ok());
  const std::uint64_t zone_pages = device_->zone_size_pages();
  for (std::uint64_t i = 0; i < 2 * zone_pages; ++i) {
    auto a = fs_->Append("dead", Bytes(4096, 1), t);
    ASSERT_TRUE(a.ok());
    auto b = fs_->Append("live", Bytes(4000 + i % 200, i), a.value());
    ASSERT_TRUE(b.ok());
    t = b.value();
    if (i % 5 == 0) {
      ASSERT_TRUE(fs_->Sync("live", t).ok());
    }
  }
  ASSERT_TRUE(fs_->Sync("dead", t).ok());
  ASSERT_TRUE(fs_->Sync("live", t).ok());
  ASSERT_TRUE(fs_->Delete("dead", t).ok());
  std::uint64_t meta_pages = fs_->stats().meta_pages_written;
  for (int i = 0; i < 1000 && fs_->stats().gc_cycles == 0; ++i) {
    ASSERT_EQ(fs_->Pump(t, false, 1), 1u);
  }
  ASSERT_EQ(fs_->stats().gc_cycles, 1u);
  ASSERT_EQ(fs_->stats().checkpoints, 0u);
  ASSERT_EQ(fs_->stats().meta_pages_written, meta_pages + 2) << "a two-page batch";
  const std::uint64_t with_batch = MetaZoneHash(*device_);

  for (int i = 0; i < 1000 && fs_->stats().checkpoints == 0; ++i) {
    meta_pages = fs_->stats().meta_pages_written;
    Result<SimTime> synced = fs_->Sync("class0", t);
    ASSERT_TRUE(synced.ok()) << synced.status().ToString();
  }
  ASSERT_EQ(fs_->stats().checkpoints, 1u);
  ASSERT_EQ(fs_->stats().meta_pages_written, meta_pages + 3) << "a two-page checkpoint";
  for (int i = 0; i < 1000 && fs_->stats().gc_cycles == 1; ++i) {
    ASSERT_EQ(fs_->Pump(t, false, 1), 1u);
  }
  ASSERT_EQ(fs_->stats().gc_cycles, 2u);
  ASSERT_EQ(fs_->stats().checkpoints, 1u);
  EXPECT_EQ(with_batch, 14399639900976037637ULL);
  EXPECT_EQ(MetaZoneHash(*device_), 2027725077889749773ULL);
  EXPECT_TRUE(fs_->CheckConsistency().ok());
}

TEST_F(ZoneFileTest, WriteAmplificationNearOneForGroupedLifetimes) {
  // Churn where whole files die together (hint-grouped): WA should stay near 1 because zones
  // die wholesale and are reset, not copied.
  SimTime t = 0;
  int gen = 0;
  std::vector<std::string> live;
  for (int i = 0; i < 400; ++i) {
    const std::string name = "g" + std::to_string(gen++);
    ASSERT_TRUE(fs_->Create(name, Lifetime::kShort, t).ok());
    // 8-page files: metadata (one journal page per create/sync/delete) amortizes.
    auto a = fs_->Append(name, Bytes(8 * 4096, static_cast<std::uint64_t>(i)), t);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(fs_->Sync(name, t).ok());
    t = a.value();
    live.push_back(name);
    if (live.size() > 8) {
      // FIFO delete: oldest files die first, so zones drain front-to-back.
      ASSERT_TRUE(fs_->Delete(live.front(), t).ok());
      live.erase(live.begin());
    }
  }
  // Metadata pages inflate WA a little; data relocation should be almost nil.
  EXPECT_LT(fs_->EndToEndWriteAmplification(), 1.8);
  EXPECT_TRUE(fs_->CheckConsistency().ok());
}

}  // namespace
}  // namespace blockhead
