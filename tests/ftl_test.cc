// Unit + property tests for the conventional (page-mapped, garbage-collecting) SSD.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <numeric>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "src/ftl/conventional_ssd.h"
#include "src/ftl/page_map.h"
#include "src/ftl/victim_index.h"
#include "src/util/rng.h"

namespace blockhead {

// Reaches into a PageMap to corrupt one entry, so Check() has something to find.
class PageMapTestPeer {
 public:
  static void SetForward(PageMap& map, std::uint64_t lpn, PageMap::Entry phys) {
    map.forward_[lpn] = phys;
  }
  static void SetReverse(PageMap& map, std::uint64_t phys, PageMap::Entry lpn) {
    map.reverse_[phys] = lpn;
  }
};

class ConventionalSsdTestPeer {
 public:
  // Reports every GC victim pick next to the linear scan's pick from the same state.
  static void CheckPicks(ConventionalSsd& ssd,
                         std::function<void(std::uint64_t, std::uint64_t)> check) {
    ssd.pick_check_ = std::move(check);
  }
  static VictimIndex& Index(ConventionalSsd& ssd) { return ssd.victim_index_; }
  static auto& Meta(ConventionalSsd& ssd, std::uint64_t block) { return ssd.block_meta_[block]; }
  static Result<SimTime> GcCycle(ConventionalSsd& ssd, SimTime now) { return ssd.GcCycle(now); }
  // Moves every plane's free blocks into `pools` (one list per plane), leaving GC no block to
  // open.
  static void TakeFreePools(ConventionalSsd& ssd, std::vector<std::vector<std::uint32_t>>& pools) {
    pools.resize(ssd.planes_.size());
    for (std::size_t pl = 0; pl < ssd.planes_.size(); ++pl) {
      std::vector<std::uint32_t>& free_blocks = ssd.planes_[pl].free_blocks;
      ssd.free_block_count_ -= free_blocks.size();
      pools[pl].insert(pools[pl].end(), free_blocks.begin(), free_blocks.end());
      free_blocks.clear();
    }
  }
  static void ReturnFreePools(ConventionalSsd& ssd,
                              std::vector<std::vector<std::uint32_t>>& pools) {
    for (std::size_t pl = 0; pl < pools.size(); ++pl) {
      std::vector<std::uint32_t>& free_blocks = ssd.planes_[pl].free_blocks;
      ssd.free_block_count_ += pools[pl].size();
      free_blocks.insert(free_blocks.end(), pools[pl].begin(), pools[pl].end());
    }
    pools.clear();
  }
};

// Moves one member of a greedy-only index to another bucket, so CheckBlock() has something to
// find.
class VictimIndexTestPeer {
 public:
  static void MoveToBucket(VictimIndex& index, std::uint64_t block, std::uint32_t bucket) {
    VictimIndex::Member& m = index.members_[block];
    index.buckets_[m.bucket].Clear(block);
    index.buckets_[bucket].Set(block);
    m.bucket = bucket;
  }
};

namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

FtlConfig DefaultFtl() {
  FtlConfig f;
  f.op_fraction = 0.15;
  return f;
}

std::vector<std::uint8_t> Pattern(std::uint32_t page_size, std::uint8_t tag) {
  std::vector<std::uint8_t> v(page_size);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(tag + i);
  }
  return v;
}

TEST(ConventionalSsdTest, ExportsReducedLogicalCapacity) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const std::uint64_t physical = ssd.flash().geometry().total_pages();
  EXPECT_LT(ssd.num_blocks(), physical);
  EXPECT_GT(ssd.num_blocks(), physical / 2);
  EXPECT_EQ(ssd.block_size(), 4096u);
}

TEST(ConventionalSsdTest, ZeroOpStillLeavesHardReserve) {
  FtlConfig f = DefaultFtl();
  f.op_fraction = 0.0;
  ConventionalSsd ssd(SmallFlash(), f);
  const FlashGeometry& g = ssd.flash().geometry();
  EXPECT_EQ(ssd.num_blocks(),
            g.total_pages() - static_cast<std::uint64_t>(f.min_reserve_blocks_per_plane) *
                                  g.total_planes() * g.pages_per_block);
}

TEST(ConventionalSsdTest, ReadYourWrite) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const auto data = Pattern(4096, 7);
  auto w = ssd.WriteBlocks(Lba{42}, 1, 0, data);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(4096);
  auto r = ssd.ReadBlocks(Lba{42}, 1, w.value(), out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(ConventionalSsdTest, OverwriteReturnsNewestData) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  SimTime t = 0;
  for (std::uint8_t tag = 0; tag < 5; ++tag) {
    auto w = ssd.WriteBlocks(Lba{10}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(ssd.ReadBlocks(Lba{10}, 1, t, out).ok());
  EXPECT_EQ(out, Pattern(4096, 4));
}

TEST(ConventionalSsdTest, UnwrittenLbaReadsZeros) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  std::vector<std::uint8_t> out(4096, 0xEE);
  auto r = ssd.ReadBlocks(Lba{100}, 1, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
}

TEST(ConventionalSsdTest, OutOfRangeRejected) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const std::uint64_t n = ssd.num_blocks();
  EXPECT_EQ(ssd.WriteBlocks(Lba{n}, 1, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ssd.ReadBlocks(Lba{n - 1}, 2, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ssd.TrimBlocks(Lba{n}, 1, 0).code(), ErrorCode::kOutOfRange);
}

TEST(ConventionalSsdTest, MultiPageWriteAndRead) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  std::vector<std::uint8_t> data(4 * 4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto w = ssd.WriteBlocks(Lba{5}, 4, 0, data);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(4 * 4096);
  ASSERT_TRUE(ssd.ReadBlocks(Lba{5}, 4, w.value(), out).ok());
  EXPECT_EQ(out, data);
}

TEST(ConventionalSsdTest, SequentialFillHasUnitWriteAmplification) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  SimTime t = 0;
  // One sequential pass over the logical space: no overwrites, no GC needed.
  for (std::uint64_t lba = 0; lba < ssd.num_blocks(); lba += 8) {
    const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        8, ssd.num_blocks() - lba));
    auto w = ssd.WriteBlocks(Lba{lba}, n, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_DOUBLE_EQ(ssd.WriteAmplification(), 1.0);
  EXPECT_EQ(ssd.ftl_stats().gc_pages_copied, 0u);
}

TEST(ConventionalSsdTest, RandomOverwritesTriggerGcAndAmplify) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ConventionalSsd ssd(fc, DefaultFtl());
  Rng rng(1);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  // Write 3x the logical capacity randomly: device must GC.
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_GT(ssd.ftl_stats().gc_runs, 0u);
  EXPECT_GT(ssd.ftl_stats().gc_pages_copied, 0u);
  EXPECT_GT(ssd.WriteAmplification(), 1.2);
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

TEST(ConventionalSsdTest, MoreOverprovisioningMeansLessWriteAmplification) {
  double wa_low_op = 0.0;
  double wa_high_op = 0.0;
  for (const double op : {0.0, 0.28}) {
    FlashConfig fc = SmallFlash();
    fc.store_data = false;
    FtlConfig f;
    f.op_fraction = op;
    ConventionalSsd ssd(fc, f);
    Rng rng(2);
    SimTime t = 0;
    const std::uint64_t n = ssd.num_blocks();
    for (std::uint64_t i = 0; i < 4 * n; ++i) {
      auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
      ASSERT_TRUE(w.ok());
      t = w.value();
    }
    (op == 0.0 ? wa_low_op : wa_high_op) = ssd.WriteAmplification();
  }
  EXPECT_GT(wa_low_op, wa_high_op * 1.5) << "0% OP should amplify much more than 28% OP";
}

TEST(ConventionalSsdTest, TrimReducesGcWork) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  FtlConfig f = DefaultFtl();

  auto run = [&](bool trim_between_rounds) {
    ConventionalSsd ssd(fc, f);
    Rng rng(3);
    SimTime t = 0;
    const std::uint64_t n = ssd.num_blocks();
    for (int round = 0; round < 4; ++round) {
      for (std::uint64_t i = 0; i < n; ++i) {
        auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
        EXPECT_TRUE(w.ok());
        t = w.value();
      }
      if (trim_between_rounds) {
        EXPECT_TRUE(ssd.TrimBlocks(Lba{0}, static_cast<std::uint32_t>(n / 2), t).ok());
      }
    }
    return ssd.WriteAmplification();
  };

  EXPECT_LT(run(true), run(false));
}

TEST(ConventionalSsdTest, GcPreservesAllLiveData) {
  // Small device, heavy churn, real data: after many random overwrites every LBA must still
  // read back its most recent value.
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  Rng rng(4);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  std::map<std::uint64_t, std::uint8_t> truth;
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Next());
    auto w = ssd.WriteBlocks(Lba{lba}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
    truth[lba] = tag;
  }
  ASSERT_GT(ssd.ftl_stats().gc_runs, 0u) << "test needs GC to actually run";
  std::vector<std::uint8_t> out(4096);
  for (const auto& [lba, tag] : truth) {
    ASSERT_TRUE(ssd.ReadBlocks(Lba{lba}, 1, t, out).ok());
    ASSERT_EQ(out, Pattern(4096, tag)) << "lba " << lba;
  }
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

TEST(ConventionalSsdTest, ForegroundGcDelaysColocatedReads) {
  // Fill the device, then overwrite to force foreground GC; a read issued right after a
  // GC-triggering write should see inflated latency vs an idle-device read.
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  fc.timing = FlashTiming::Tlc();
  FtlConfig f;
  f.op_fraction = 0.07;
  ConventionalSsd ssd(fc, f);
  Rng rng(5);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();

  auto idle_read = ssd.ReadBlocks(Lba{0}, 1, 0);
  ASSERT_TRUE(idle_read.ok());
  const SimTime idle_latency = idle_read.value();

  SimTime max_read_latency = 0;
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    if (i % 16 == 0) {
      auto r = ssd.ReadBlocks(Lba{rng.NextBelow(n)}, 1, t);
      ASSERT_TRUE(r.ok());
      max_read_latency = std::max(max_read_latency, r.value() - t);
    }
    t = std::max(t, w.value());
  }
  ASSERT_GT(ssd.ftl_stats().foreground_gc_stalls, 0u);
  EXPECT_GT(max_read_latency, 4 * idle_latency)
      << "device GC should visibly inflate read tail latency";
}

TEST(ConventionalSsdTest, BackgroundGcReducesForegroundStalls) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;

  auto stalls = [&](bool background) {
    ConventionalSsd ssd(fc, DefaultFtl());
    Rng rng(6);
    SimTime t = 0;
    const std::uint64_t n = ssd.num_blocks();
    for (std::uint64_t i = 0; i < 3 * n; ++i) {
      auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
      EXPECT_TRUE(w.ok());
      t = w.value();
      if (background && i % 8 == 0) {
        ssd.RunBackgroundGc(t, 2);
      }
    }
    return ssd.ftl_stats().foreground_gc_stalls;
  };

  EXPECT_LT(stalls(true), stalls(false));
}

TEST(ConventionalSsdTest, WearLevelingNarrowsEraseSpread) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;

  auto spread = [&](bool wl) {
    FtlConfig f = DefaultFtl();
    f.wear_leveling = wl;
    ConventionalSsd ssd(fc, f);
    // Skewed workload: hammer 10% of the logical space.
    const std::uint64_t n = ssd.num_blocks();
    Rng rng(7);
    SimTime t = 0;
    // Fill everything once (cold data), then hammer the hot set.
    for (std::uint64_t lba = 0; lba < n; ++lba) {
      auto w = ssd.WriteBlocks(Lba{lba}, 1, t);
      EXPECT_TRUE(w.ok());
      t = w.value();
    }
    for (std::uint64_t i = 0; i < 6 * n; ++i) {
      auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n / 10)}, 1, t);
      EXPECT_TRUE(w.ok());
      t = w.value();
    }
    const WearSummary w = ssd.flash().ComputeWear();
    return w.stddev_erase_count / std::max(1.0, w.mean_erase_count);
  };

  EXPECT_LT(spread(true), spread(false));
}

TEST(ConventionalSsdTest, DramUsageMatchesPaperModel) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const DramUsage u = ssd.ComputeDramUsage();
  EXPECT_EQ(u.mapping_bytes, ssd.num_blocks() * 4);
  EXPECT_GT(u.gc_metadata_bytes, 0u);
  EXPECT_GT(u.total(), u.mapping_bytes);
  // The reported bytes are the page map's own 4-byte entries: forward for the mapping,
  // reverse plus the per-block valid counts for GC metadata.
  const PageMap& map = ssd.page_map();
  EXPECT_EQ(sizeof(PageMap::Entry), 4u);
  EXPECT_EQ(map.logical_pages(), ssd.num_blocks());
  EXPECT_EQ(map.physical_pages(), ssd.flash().geometry().total_pages());
  EXPECT_EQ(u.mapping_bytes, map.logical_pages() * 4);
  EXPECT_EQ(u.gc_metadata_bytes,
            map.physical_pages() * 4 + ssd.flash().geometry().total_blocks() * 4);
}

TEST(ConventionalSsdTest, WriteBufferAcksBeforeProgramCompletes) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  ConventionalSsd ssd(fc, DefaultFtl());
  auto w = ssd.WriteBlocks(Lba{0}, 1, 0);
  ASSERT_TRUE(w.ok());
  // Ack at data-in (channel transfer), long before the ~660us cell program.
  EXPECT_LT(w.value(), fc.timing.page_program);
}

TEST(ConventionalSsdTest, WriteBufferBackpressuresWhenFull) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  ConventionalSsd ssd(fc, DefaultFtl());
  const std::uint32_t buffer = ConventionalSsd::kWriteBufferPages;
  std::vector<SimTime> acks;
  for (std::uint32_t i = 0; i <= buffer; ++i) {
    auto w = ssd.WriteBlocks(Lba{i}, 1, 0);
    ASSERT_TRUE(w.ok());
    acks.push_back(w.value());
  }
  // A full buffer's worth of writes acks before any cell program completes; the next write
  // must wait for the oldest program to free a slot.
  EXPECT_LT(acks[buffer - 1], fc.timing.page_program);
  EXPECT_GT(acks[buffer], fc.timing.page_program);
}

TEST(ConventionalSsdTest, CostBenefitPolicyAlsoPreservesData) {
  FlashConfig fc = SmallFlash();
  FtlConfig f = DefaultFtl();
  f.victim_policy = GcVictimPolicy::kCostBenefit;
  ConventionalSsd ssd(fc, f);
  Rng rng(8);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  std::map<std::uint64_t, std::uint8_t> truth;
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Next());
    auto w = ssd.WriteBlocks(Lba{lba}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
    truth[lba] = tag;
  }
  EXPECT_GT(ssd.ftl_stats().gc_runs, 0u);
  std::vector<std::uint8_t> out(4096);
  for (const auto& [lba, tag] : truth) {
    ASSERT_TRUE(ssd.ReadBlocks(Lba{lba}, 1, t, out).ok());
    ASSERT_EQ(out, Pattern(4096, tag));
  }
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

// Property sweep: for several OP fractions, random churn never corrupts the L2P state and WA
// stays within sane bounds (>= 1, finite).
class OpSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(OpSweepTest, ChurnKeepsInvariants) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  FtlConfig f;
  f.op_fraction = GetParam();
  ConventionalSsd ssd(fc, f);
  Rng rng(10);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    if (rng.NextBool(0.05)) {
      ASSERT_TRUE(ssd.TrimBlocks(Lba{lba}, 1, t).ok());
      continue;
    }
    auto w = ssd.WriteBlocks(Lba{lba}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_GE(ssd.WriteAmplification(), 1.0);
  EXPECT_LT(ssd.WriteAmplification(), 100.0);
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(OpFractions, OpSweepTest,
                         ::testing::Values(0.0, 0.07, 0.125, 0.25, 0.28));

TEST(FtlConfigTest, ValidateRejectsReserveThatLeavesNoExportedBlock) {
  const FlashGeometry g = FlashGeometry::Small();
  FtlConfig f;
  f.min_reserve_blocks_per_plane = g.blocks_per_plane - 1;
  EXPECT_TRUE(f.Validate(g).ok());
  f.min_reserve_blocks_per_plane = g.blocks_per_plane;
  EXPECT_EQ(f.Validate(g).code(), ErrorCode::kInvalidArgument);
  f.min_reserve_blocks_per_plane = g.blocks_per_plane + 1;
  EXPECT_EQ(f.Validate(g).code(), ErrorCode::kInvalidArgument);
}

TEST(ConventionalSsdDeathTest, ReserveOfEveryBlockPerPlaneAborts) {
  FtlConfig f = DefaultFtl();
  f.min_reserve_blocks_per_plane = FlashGeometry::Small().blocks_per_plane;
  EXPECT_DEATH(ConventionalSsd(SmallFlash(), f), "min_reserve_blocks_per_plane");
  f.min_reserve_blocks_per_plane += 1;  // Used to wrap total_pages - reserve_pages.
  EXPECT_DEATH(ConventionalSsd(SmallFlash(), f), "min_reserve_blocks_per_plane");
}

// --- Victim index ---

TEST(VictimIndexTest, DeadBlocksGoToFirstInRotatingOrder) {
  for (const bool by_age : {false, true}) {
    VictimIndex index(8, 4, by_age, /*by_wear=*/true);
    for (const std::uint64_t b : {1, 3, 6}) {
      index.Insert(b, 0, /*last_write=*/b, /*erase_count=*/0);
    }
    index.Insert(4, 1, 0, 0);
    EXPECT_EQ(index.PickGreedy(0), 1u);
    EXPECT_EQ(index.PickGreedy(2), 3u);
    EXPECT_EQ(index.PickGreedy(4), 6u);
    EXPECT_EQ(index.PickGreedy(7), 1u);  // Wraps.
    if (by_age) {
      EXPECT_EQ(index.PickCostBenefit(4, 100), 6u);
      EXPECT_EQ(index.PickCostBenefit(7, 100), 1u);
    }
  }
}

TEST(VictimIndexTest, OnlyFullyValidMembersYieldNoVictim) {
  VictimIndex index(8, 4, /*by_age=*/true, /*by_wear=*/true);
  EXPECT_EQ(index.PickGreedy(0), VictimIndex::kNone);
  EXPECT_EQ(index.PickCostBenefit(0, 10), VictimIndex::kNone);
  EXPECT_EQ(index.PickLeastWorn(0), VictimIndex::kNone);
  index.Insert(2, 4, 5, 3);
  index.Insert(5, 4, 1, 2);
  EXPECT_EQ(index.PickGreedy(0), VictimIndex::kNone);
  EXPECT_EQ(index.PickCostBenefit(0, 10), VictimIndex::kNone);
  EXPECT_EQ(index.PickLeastWorn(0), 5u);  // Wear migration may move a fully valid block.
  index.DropValidPage(2);
  EXPECT_EQ(index.PickGreedy(6), 2u);
  EXPECT_EQ(index.PickCostBenefit(6, 10), 2u);
}

TEST(VictimIndexTest, CostBenefitPrefersOldestWithinBucket) {
  VictimIndex index(8, 4, /*by_age=*/true, /*by_wear=*/false);
  index.Insert(1, 2, 50, 0);
  index.Insert(5, 2, 20, 0);
  index.Insert(6, 2, 20, 0);
  index.Insert(2, 3, 0, 0);  // Older, but (1-u)/2u = 1/6 against 1/2: 101/6 < 81/2.
  EXPECT_EQ(index.PickCostBenefit(0, 100), 5u);
  EXPECT_EQ(index.PickCostBenefit(6, 100), 6u);  // Equal last writes tie: rotating order.
  EXPECT_EQ(index.PickCostBenefit(7, 100), 5u);
}

TEST(VictimIndexTest, CostBenefitAgeClampTiesWholeBucket) {
  VictimIndex index(8, 4, /*by_age=*/true, /*by_wear=*/false);
  // Every member was last written at or after `now`: all ages clamp to 1, so the oldest
  // member (block 6) has no edge and rotating order alone decides.
  index.Insert(2, 1, 130, 0);
  index.Insert(6, 1, 100, 0);
  index.Insert(4, 1, 120, 0);
  EXPECT_EQ(index.PickCostBenefit(0, 100), 2u);
  EXPECT_EQ(index.PickCostBenefit(3, 100), 4u);
  EXPECT_EQ(index.PickCostBenefit(5, 100), 6u);
  EXPECT_EQ(index.PickCostBenefit(7, 100), 2u);
  EXPECT_EQ(index.PickCostBenefit(3, 101), 6u);  // Block 6 is now 1 ns older: it wins.
}

TEST(VictimIndexTest, CostBenefitTieAcrossBucketsGoesToRotatingOrder) {
  VictimIndex index(8, 4, /*by_age=*/true, /*by_wear=*/false);
  // Bucket 1 scores 1.5 x age, bucket 2 scores 0.5 x age: ages 1 and 3 tie exactly at 1.5.
  index.Insert(5, 1, 100, 0);
  index.Insert(2, 2, 98, 0);
  ASSERT_EQ(VictimIndex::CostBenefitScore(1, 4, 100, 100),
            VictimIndex::CostBenefitScore(2, 4, 100, 98));
  EXPECT_EQ(index.PickCostBenefit(0, 100), 2u);
  EXPECT_EQ(index.PickCostBenefit(3, 100), 5u);
  EXPECT_EQ(index.PickCostBenefit(6, 100), 2u);
}

TEST(VictimIndexTest, CostBenefitRoundingTiesSpanLastWriteRuns) {
  VictimIndex index(8, 4, /*by_age=*/true, /*by_wear=*/false);
  // Past 2^53 ns, ages that differ by 1 ns round to the same double, so members with
  // different last writes tie and rotating order decides between them.
  const SimTime now = SimTime{1} << 60;
  index.Insert(5, 2, 0, 0);
  index.Insert(2, 2, 1, 0);
  ASSERT_EQ(VictimIndex::CostBenefitScore(2, 4, now, 0),
            VictimIndex::CostBenefitScore(2, 4, now, 1));
  EXPECT_EQ(index.PickCostBenefit(0, now), 2u);
  EXPECT_EQ(index.PickCostBenefit(3, now), 5u);
}

TEST(VictimIndexTest, LeastWornTiesGoToRotatingOrder) {
  VictimIndex index(8, 4, /*by_age=*/false, /*by_wear=*/true);
  index.Insert(1, 4, 0, 7);
  index.Insert(3, 0, 0, 2);
  index.Insert(6, 3, 0, 2);
  EXPECT_EQ(index.PickLeastWorn(0), 3u);
  EXPECT_EQ(index.PickLeastWorn(4), 6u);
  EXPECT_EQ(index.PickLeastWorn(7), 3u);
  index.Remove(3);
  index.Remove(6);
  EXPECT_EQ(index.PickLeastWorn(4), 1u);
  EXPECT_TRUE(index.CheckTotals().ok());
}

struct PickTraceCase {
  const char* name;
  GcVictimPolicy policy;
  std::uint32_t wear_migrate_interval;
  std::uint32_t num_streams;
  double early_failure_prob;
};

// Prints the case's parameters (its name is already the test name's suffix), so the test names
// gtest lists are the same in every run instead of a dump of the name pointer's bytes.
void PrintTo(const PickTraceCase& c, std::ostream* os) {
  *os << "policy " << (c.policy == GcVictimPolicy::kGreedy ? "greedy" : "cost_benefit")
      << " migrate_interval " << c.wear_migrate_interval << " streams " << c.num_streams
      << " early_failure_prob " << c.early_failure_prob;
}

class VictimIndexTraceTest : public ::testing::TestWithParam<PickTraceCase> {};

// Seeded random traces (multi-stream writes, skewed overwrites, trims, background GC, issue
// times that sometimes step back): before every GC cycle the index must pick exactly the block
// the linear scan picks, and CheckConsistency must hold throughout.
TEST_P(VictimIndexTraceTest, IndexPickMatchesLinearScan) {
  const PickTraceCase& c = GetParam();
  for (const std::uint64_t seed : {1, 2}) {
    FlashConfig fc = SmallFlash();
    fc.store_data = false;
    fc.early_failure_prob = c.early_failure_prob;
    fc.seed = seed;
    FtlConfig f;
    f.op_fraction = 0.1;
    f.victim_policy = c.policy;
    f.wear_migrate_interval = c.wear_migrate_interval;
    f.num_streams = c.num_streams;
    ConventionalSsd ssd(fc, f);
    std::uint64_t picks = 0;
    ConventionalSsdTestPeer::CheckPicks(ssd, [&](std::uint64_t index_pick,
                                                 std::uint64_t scan_pick) {
      ++picks;
      ASSERT_EQ(index_pick, scan_pick) << "pick " << picks << " seed " << seed;
    });
    Rng rng(seed);
    SimTime t = 0;
    const std::uint64_t n = ssd.num_blocks();
    const std::uint64_t hot = n / 5;
    for (std::uint64_t i = 0; i < 4 * n && !HasFatalFailure(); ++i) {
      const SimTime issue = rng.NextBool(0.1) ? t - std::min<SimTime>(t, rng.NextBelow(5000)) : t;
      const std::uint64_t lba = rng.NextBool(0.8) ? rng.NextBelow(hot) : rng.NextBelow(n);
      const std::uint32_t count =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(1 + rng.NextBelow(4), n - lba));
      if (rng.NextBool(0.05)) {
        ASSERT_TRUE(ssd.TrimBlocks(Lba{lba}, count, issue).ok());
      } else if (rng.NextBool(0.02)) {
        ssd.RunBackgroundGc(issue, 1 + static_cast<std::uint32_t>(rng.NextBelow(4)));
      } else {
        const std::uint32_t stream = static_cast<std::uint32_t>(rng.NextBelow(c.num_streams));
        auto w = ssd.WriteBlocksStream(Lba{lba}, count, stream, issue);
        if (!w.ok()) {
          ASSERT_GT(c.early_failure_prob, 0.0) << w.status().ToString();
          break;  // Early failures used up the spare blocks.
        }
        t = std::max(t, w.value());
      }
      if (i % (n / 2) == 0) {
        ASSERT_TRUE(ssd.CheckConsistency().ok());
      }
    }
    EXPECT_GT(picks, 200u);
    EXPECT_TRUE(ssd.CheckConsistency().ok());
    if (c.wear_migrate_interval != 0) {
      EXPECT_GT(ssd.ftl_stats().wear_migrations, 0u);
    }
    if (c.early_failure_prob > 0.0) {
      EXPECT_GT(ssd.flash().ComputeWear().bad_blocks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VictimIndexTraceTest,
    ::testing::Values(
        PickTraceCase{"GreedyMigrateEvery64Cycles1Stream", GcVictimPolicy::kGreedy, 64, 1, 0.0},
        PickTraceCase{"GreedyNoMigration", GcVictimPolicy::kGreedy, 0, 1, 0.0},
        PickTraceCase{"GreedyMigrateEveryCycle4Streams", GcVictimPolicy::kGreedy, 1, 4, 0.0},
        PickTraceCase{"CostBenefit", GcVictimPolicy::kCostBenefit, 64, 1, 0.0},
        PickTraceCase{"CostBenefitMigrateEveryCycle4Streams", GcVictimPolicy::kCostBenefit, 1,
                      4, 0.0},
        PickTraceCase{"GreedyBadBlocks", GcVictimPolicy::kGreedy, 64, 1, 0.01},
        PickTraceCase{"CostBenefitBadBlocks4Streams", GcVictimPolicy::kCostBenefit, 64, 4,
                      0.01}),
    [](const ::testing::TestParamInfo<PickTraceCase>& c) { return c.param.name; });

TEST(ConventionalSsdTest, CheckConsistencyCatchesCorruptVictimIndex) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ConventionalSsd ssd(fc, DefaultFtl());
  Rng rng(3);
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 2 * ssd.num_blocks(); ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(ssd.num_blocks())}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  ASSERT_TRUE(ssd.CheckConsistency().ok());
  VictimIndex& index = ConventionalSsdTestPeer::Index(ssd);
  std::uint64_t member = 0;
  while (!index.Contains(member)) {
    ++member;
  }
  const std::uint32_t ppb = ssd.flash().geometry().pages_per_block;
  const std::uint32_t valid = static_cast<std::uint32_t>(
      ssd.page_map().LiveCounts(ppb)[member]);
  VictimIndexTestPeer::MoveToBucket(index, member, valid == 0 ? 1 : valid - 1);
  const Status s = ssd.CheckConsistency();
  EXPECT_EQ(s.code(), ErrorCode::kCorruption);
  EXPECT_NE(s.message().find("bucket"), std::string::npos) << s.message();
  VictimIndexTestPeer::MoveToBucket(index, member, valid);
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

TEST(ConventionalSsdTest, CheckConsistencyCatchesBlockMirrorDrift) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ConventionalSsd ssd(fc, DefaultFtl());
  Rng rng(4);
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 3 * ssd.num_blocks(); ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(ssd.num_blocks())}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  ASSERT_TRUE(ssd.CheckConsistency().ok());
  ASSERT_GT(ssd.ftl_stats().gc_runs, 0u);
  const auto erase_count = [&](std::uint64_t block) {
    const PhysAddr a = AddrFromFlatBlock(ssd.flash().geometry(), block);
    return ssd.flash().block_status(a.channel, a.plane, a.block).erase_count;
  };
  std::uint64_t block = 0;
  while (erase_count(block) == 0) {
    ++block;  // An erased and rewritten block: its mirrored fields have all been updated.
  }
  auto& meta = ConventionalSsdTestPeer::Meta(ssd, block);
  const auto saved = meta;
  const std::vector<std::function<void()>> drifts = {
      [&] { meta.next_page ^= 1; },
      [&] { meta.erase_count++; },
      [&] { meta.bad = !meta.bad; },
  };
  for (const auto& drift : drifts) {
    drift();
    const Status s = ssd.CheckConsistency();
    EXPECT_EQ(s.code(), ErrorCode::kCorruption);
    EXPECT_NE(s.message().find("block descriptor"), std::string::npos) << s.message();
    meta = saved;
    EXPECT_TRUE(ssd.CheckConsistency().ok());
  }
}

// A GC cycle that runs out of copy slots part-way through its victim must leave the victim in
// the victim index with its remaining valid pages, so picks and CheckConsistency stay exact.
TEST(ConventionalSsdTest, GcCycleFailingMidCopyPutsVictimBack) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ConventionalSsd ssd(fc, DefaultFtl());
  Rng rng(5);
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 3 * ssd.num_blocks(); ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(ssd.num_blocks())}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  ASSERT_TRUE(ssd.CheckConsistency().ok());

  // With the free pools held back, the GC frontiers fill up and a cycle runs out of slots.
  std::vector<std::vector<std::uint32_t>> pools;
  std::uint64_t copied_by_failed_cycle = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ConventionalSsdTestPeer::TakeFreePools(ssd, pools);
    const std::uint64_t copied = ssd.ftl_stats().gc_pages_copied;
    Result<SimTime> done = ConventionalSsdTestPeer::GcCycle(ssd, t);
    ASSERT_TRUE(ssd.CheckConsistency().ok()) << "cycle " << cycle;
    if (!done.ok()) {
      EXPECT_EQ(done.code(), ErrorCode::kNoFreeBlocks);
      copied_by_failed_cycle = ssd.ftl_stats().gc_pages_copied - copied;
      break;
    }
    t = done.value();
  }
  EXPECT_GT(copied_by_failed_cycle, 0u);

  // With its blocks back, the device keeps working.
  ConventionalSsdTestPeer::ReturnFreePools(ssd, pools);
  for (std::uint64_t i = 0; i < ssd.num_blocks(); ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(ssd.num_blocks())}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

// --- PageMap ---

TEST(PageMapTest, RandomTraceMatchesReference) {
  constexpr std::uint64_t kLogical = 300;
  constexpr std::uint64_t kPhysical = 400;
  PageMap map(kLogical, kPhysical);
  std::unordered_map<std::uint64_t, std::uint64_t> forward;  // lpn -> phys
  std::unordered_map<std::uint64_t, std::uint64_t> reverse;  // phys -> lpn
  Rng rng(17);
  auto free_page = [&] {
    std::uint64_t phys = rng.NextBelow(kPhysical);
    while (reverse.contains(phys)) {
      phys = (phys + 1) % kPhysical;
    }
    return phys;
  };
  for (SimTime t = 0; t < 20000; ++t) {
    const std::uint64_t op = rng.NextBelow(3);
    if (op == 0) {
      // Overwrite: unmap the old location (if any), then map to a free page.
      const std::uint64_t lpn = rng.NextBelow(kLogical);
      const PageMap::Entry old = map.Unmap(lpn, t);
      if (auto it = forward.find(lpn); it != forward.end()) {
        ASSERT_EQ(old, it->second);
        reverse.erase(it->second);
        forward.erase(it);
      } else {
        ASSERT_EQ(old, PageMap::kUnmapped);
      }
      const std::uint64_t phys = free_page();
      map.Map(lpn, phys, t);
      forward[lpn] = phys;
      reverse[phys] = lpn;
    } else if (op == 1) {
      const std::uint64_t lpn = rng.NextBelow(kLogical);
      const PageMap::Entry old = map.Unmap(lpn, t);
      if (auto it = forward.find(lpn); it != forward.end()) {
        ASSERT_EQ(old, it->second);
        reverse.erase(it->second);
        forward.erase(it);
      } else {
        ASSERT_EQ(old, PageMap::kUnmapped);
      }
    } else if (!reverse.empty() && reverse.size() < kPhysical) {
      // Relocate a live page, as GC does.
      std::uint64_t from = rng.NextBelow(kPhysical);
      while (!reverse.contains(from)) {
        from = (from + 1) % kPhysical;
      }
      const std::uint64_t to = free_page();
      const std::uint64_t lpn = reverse[from];
      ASSERT_EQ(map.Move(from, to, t), lpn);
      reverse.erase(from);
      reverse[to] = lpn;
      forward[lpn] = to;
    }
  }
  ASSERT_FALSE(forward.empty());
  for (std::uint64_t lpn = 0; lpn < kLogical; ++lpn) {
    const auto it = forward.find(lpn);
    EXPECT_EQ(map.Lookup(lpn), it == forward.end() ? PageMap::kUnmapped : it->second);
  }
  for (std::uint64_t phys = 0; phys < kPhysical; ++phys) {
    const auto it = reverse.find(phys);
    EXPECT_EQ(map.Owner(phys), it == reverse.end() ? PageMap::kUnmapped : it->second);
    EXPECT_EQ(map.Live(phys), it != reverse.end());
  }
  EXPECT_TRUE(map.Check().ok());
  const std::vector<std::uint32_t> live = map.LiveCounts(100);
  ASSERT_EQ(live.size(), 4u);
  EXPECT_EQ(std::accumulate(live.begin(), live.end(), std::uint64_t{0}), reverse.size());
}

TEST(PageMapTest, CheckCatchesCorruptForwardEntry) {
  PageMap map(8, 16);
  map.Map(3, 5, 0);
  map.Map(4, 6, 0);
  ASSERT_TRUE(map.Check().ok());
  PageMapTestPeer::SetForward(map, 3, 6);  // Points at a page owned by lpn 4.
  EXPECT_EQ(map.Check().code(), ErrorCode::kCorruption);
  PageMapTestPeer::SetForward(map, 3, 16);  // Past the physical space.
  EXPECT_EQ(map.Check().code(), ErrorCode::kCorruption);
}

TEST(PageMapTest, CheckCatchesCorruptReverseEntry) {
  PageMap map(8, 16);
  map.Map(3, 5, 0);
  ASSERT_TRUE(map.Check().ok());
  PageMapTestPeer::SetReverse(map, 9, 3);  // A stale owner: lpn 3 lives at 5, not 9.
  EXPECT_EQ(map.Check().code(), ErrorCode::kCorruption);
  PageMapTestPeer::SetReverse(map, 9, 8);  // Past the logical space.
  EXPECT_EQ(map.Check().code(), ErrorCode::kCorruption);
}

TEST(PageMapTest, SentinelAndBoundaryPages) {
  PageMap map(10, 12);
  EXPECT_EQ(map.forward_bytes(), 40u);
  EXPECT_EQ(map.reverse_bytes(), 48u);
  EXPECT_EQ(map.Lookup(0), PageMap::kUnmapped);
  EXPECT_EQ(map.Owner(11), PageMap::kUnmapped);
  EXPECT_EQ(map.Unmap(9, 0), PageMap::kUnmapped);  // Unmapping an unmapped page is a no-op.
  map.Map(0, 11, 0);  // First logical page -> last physical page.
  map.Map(9, 0, 0);   // Last logical page -> first physical page.
  EXPECT_EQ(map.Lookup(0), 11u);
  EXPECT_EQ(map.Lookup(9), 0u);
  EXPECT_EQ(map.Owner(0), 9u);
  EXPECT_TRUE(map.Live(11));
  EXPECT_FALSE(map.Live(10));
  EXPECT_EQ(map.Move(11, 10, 0), 0u);
  EXPECT_FALSE(map.Live(11));
  EXPECT_EQ(map.Unmap(9, 0), 0u);
  EXPECT_FALSE(map.Live(0));
  EXPECT_TRUE(map.Check().ok());
  EXPECT_EQ(map.LiveCounts(5), (std::vector<std::uint32_t>{0, 0, 1}));
}

TEST(PageMapDeathTest, PageCountsPastFourByteEntriesAbort) {
  EXPECT_DEATH(PageMap(1, PageMap::kUnmapped), "4-byte entries");
  EXPECT_DEATH(PageMap(std::uint64_t{1} << 32, 1), "4-byte entries");
}

}  // namespace
}  // namespace blockhead
