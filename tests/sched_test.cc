// Unit tests for the host GC scheduling policies and the shared zone reclaimer's victim pick
// and reset tail.

#include <gtest/gtest.h>

#include <vector>

#include "src/sched/gc_scheduler.h"
#include "src/sched/zone_reclaimer.h"

namespace blockhead {
namespace {

GcSchedulerConfig Config(GcSchedPolicy policy) {
  GcSchedulerConfig c;
  c.policy = policy;
  c.critical_free_fraction = 0.05;
  c.low_free_fraction = 0.25;
  return c;
}

TEST(GcSchedulerTest, PolicyNames) {
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kInline), "inline");
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kBackground), "background");
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kReadPriority), "read-priority");
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kRateLimited), "rate-limited");
}

TEST(GcSchedulerTest, NoPolicyRunsWithAmpleSpace) {
  for (const auto policy : {GcSchedPolicy::kInline, GcSchedPolicy::kBackground,
                            GcSchedPolicy::kReadPriority, GcSchedPolicy::kRateLimited}) {
    GcScheduler sched(Config(policy));
    EXPECT_FALSE(sched.ShouldRun(0.9, false, 0)) << GcSchedPolicyName(policy);
    EXPECT_FALSE(sched.ShouldRun(0.26, true, 0)) << GcSchedPolicyName(policy);
  }
}

TEST(GcSchedulerTest, EveryPolicyRunsWhenCritical) {
  for (const auto policy : {GcSchedPolicy::kInline, GcSchedPolicy::kBackground,
                            GcSchedPolicy::kReadPriority, GcSchedPolicy::kRateLimited}) {
    GcScheduler sched(Config(policy));
    EXPECT_TRUE(sched.ShouldRun(0.04, true, 0)) << GcSchedPolicyName(policy);
    EXPECT_TRUE(sched.Critical(0.04));
    EXPECT_FALSE(sched.Critical(0.06));
  }
}

TEST(GcSchedulerTest, InlineNeverRunsEarly) {
  GcScheduler sched(Config(GcSchedPolicy::kInline));
  EXPECT_FALSE(sched.ShouldRun(0.10, false, 0));
  EXPECT_FALSE(sched.ShouldRun(0.10, true, 0));
}

TEST(GcSchedulerTest, BackgroundRunsBelowLowWatermark) {
  GcScheduler sched(Config(GcSchedPolicy::kBackground));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, 0));
  EXPECT_TRUE(sched.ShouldRun(0.20, true, 0));
}

TEST(GcSchedulerTest, ReadPriorityDefersWhileReadsPending) {
  GcScheduler sched(Config(GcSchedPolicy::kReadPriority));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, 0));
  EXPECT_FALSE(sched.ShouldRun(0.20, true, 0));
  // ...but not when space is critical.
  EXPECT_TRUE(sched.ShouldRun(0.04, true, 0));
}

TEST(GcSchedulerTest, RateLimiterSpacesRuns) {
  constexpr SimTime kInterval = GcScheduler::kMinGcInterval;
  static_assert(kInterval == 2 * kMillisecond);
  GcScheduler sched(Config(GcSchedPolicy::kRateLimited));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, 0));
  sched.NoteRun(0);
  EXPECT_FALSE(sched.ShouldRun(0.20, false, kInterval / 2));
  EXPECT_FALSE(sched.ShouldRun(0.20, false, kInterval - 1));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, kInterval));
  // Criticality overrides the rate limit.
  sched.NoteRun(kInterval);
  EXPECT_TRUE(sched.ShouldRun(0.01, false, kInterval + 1));
}

// --- ZoneReclaimer, driven on a small ZNS device (64 zones of 128 pages).

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

ZnsConfig SmallZns() {
  ZnsConfig z;
  z.max_active_zones = 4;
  z.max_open_zones = 4;
  return z;
}

class ZoneReclaimerTest : public ::testing::Test {
 protected:
  ZoneReclaimer Make(std::uint32_t first_zone = 0, double max_live_fraction = 0.75) {
    return ZoneReclaimer(&dev_, GcSchedulerConfig{}, first_zone, max_live_fraction, 4);
  }
  // Seals `zone` (no pages programmed) and gives it `live` live pages in `r`.
  void FullZone(ZoneReclaimer& r, std::uint32_t zone, std::uint32_t live) {
    ASSERT_TRUE(dev_.FinishZone(ZoneId{zone}, 0).ok());
    r.AddLive(zone, live);
  }
  std::uint32_t Capacity() const { return static_cast<std::uint32_t>(dev_.zone_size_pages()); }

  ZnsDevice dev_{SmallFlash(), SmallZns()};
};

TEST_F(ZoneReclaimerTest, EqualLiveTiesGoToLowestZone) {
  ZoneReclaimer r = Make();
  FullZone(r, 9, 10);
  FullZone(r, 5, 10);
  FullZone(r, 7, 20);
  EXPECT_EQ(r.PickVictim(false, {}), 5u);
  EXPECT_EQ(r.PickVictim(true, {}), 5u);
}

TEST_F(ZoneReclaimerTest, ZonesBelowFirstZoneAreNeverPicked) {
  ZoneReclaimer r = Make(/*first_zone=*/2);
  FullZone(r, 0, 0);  // Fully dead, but reserved (zonefile's metadata zones).
  FullZone(r, 1, 0);
  EXPECT_EQ(r.PickVictim(true, {}), ZoneReclaimer::kNoZone);
  FullZone(r, 4, 50);
  EXPECT_EQ(r.PickVictim(true, {}), 4u);
  EXPECT_EQ(r.PickVictim(false, {}), 4u);
}

TEST_F(ZoneReclaimerTest, SkippedZonesAreNeverPicked) {
  ZoneReclaimer r = Make();
  FullZone(r, 3, 1);
  FullZone(r, 6, 2);
  const std::vector<std::uint32_t> skip_one = {ZoneReclaimer::kNoZone, 3};
  EXPECT_EQ(r.PickVictim(true, skip_one), 6u);
  const std::vector<std::uint32_t> skip_both = {6, 3};
  EXPECT_EQ(r.PickVictim(true, skip_both), ZoneReclaimer::kNoZone);
}

TEST_F(ZoneReclaimerTest, FullyLiveZonesAreSkipped) {
  ZoneReclaimer r = Make();
  FullZone(r, 2, Capacity());
  EXPECT_EQ(r.PickVictim(true, {}), ZoneReclaimer::kNoZone);
  FullZone(r, 8, Capacity() - 1);
  EXPECT_EQ(r.PickVictim(true, {}), 8u);
}

TEST_F(ZoneReclaimerTest, MaxLiveFractionAppliesOnlyWhenNotCritical) {
  ZoneReclaimer r = Make(/*first_zone=*/0, /*max_live_fraction=*/0.5);
  FullZone(r, 4, Capacity() / 2 + 1);
  EXPECT_EQ(r.PickVictim(false, {}), ZoneReclaimer::kNoZone);
  EXPECT_EQ(r.PickVictim(true, {}), 4u);
  FullZone(r, 10, Capacity() / 2);  // Exactly at the threshold: still eligible.
  EXPECT_EQ(r.PickVictim(false, {}), 10u);
}

TEST_F(ZoneReclaimerTest, NoCandidateReturnsNoZone) {
  ZoneReclaimer r = Make();
  EXPECT_EQ(r.PickVictim(true, {}), ZoneReclaimer::kNoZone);  // Nothing is full.
  EXPECT_EQ(r.BeginCycle(0, true, {}, 0).code(), ErrorCode::kNoFreeBlocks);
  EXPECT_EQ(r.victim(), ZoneReclaimer::kNoZone);
}

// Fills zone 0 with programmed pages, then runs one reclaim cycle on it. Returns the reclaimer
// for inspection.
ZoneReclaimer ReclaimFilledZone(ZnsDevice& dev) {
  ZoneReclaimer r(&dev, GcSchedulerConfig{}, 0, 0.75, 4);
  SimTime t = 0;
  for (std::uint64_t off = 0; off < dev.zone(ZoneId{0}).capacity_pages; ++off) {
    Result<SimTime> w = dev.Write(ZoneId{0}, off, 1, t);
    EXPECT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_TRUE(r.BeginCycle(t, /*critical=*/true, {}, 0).ok());
  EXPECT_EQ(r.victim(), 0u);
  EXPECT_TRUE(r.FinishCycle(t, t, 0).ok());
  EXPECT_EQ(r.victim(), ZoneReclaimer::kNoZone);
  EXPECT_EQ(r.scheduler().stats().runs, 1u);
  return r;
}

TEST(ZoneReclaimerResetTest, ResetZoneReturnsToPool) {
  ZnsDevice dev(SmallFlash(), SmallZns());
  ZoneReclaimer r = ReclaimFilledZone(dev);
  EXPECT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kEmpty);
  EXPECT_EQ(r.FreeZones(), 1u);
  EXPECT_EQ(r.TakeFreeZone(), 0u);
}

TEST(ZoneReclaimerResetTest, ZoneOfflineAtResetDoesNotReturnToPool) {
  FlashConfig fc = SmallFlash();
  fc.timing.endurance_cycles = 1;  // Every block wears out at its first erase.
  ZnsDevice dev(fc, SmallZns());
  ZoneReclaimer r = ReclaimFilledZone(dev);
  EXPECT_EQ(dev.zone(ZoneId{0}).state, ZoneState::kOffline);
  EXPECT_EQ(r.FreeZones(), 0u);
  EXPECT_EQ(r.TakeFreeZone(), ZoneReclaimer::kNoZone);
}

}  // namespace
}  // namespace blockhead
