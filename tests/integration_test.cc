// Cross-module integration tests: full stacks composed end-to-end.
//
//   * KV store -> zonefile -> ZNS device, with a crash + remount in the middle of churn;
//   * BlockFlashCache stacked on the host-FTL block device (block interface composition);
//   * matched conventional/ZNS devices under the same driver workload;
//   * endurance exhaustion propagating up through the ZNS stack (zone shrink/offline).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/cache/flash_cache.h"
#include "src/core/matched_pair.h"
#include "src/hostftl/host_ftl.h"
#include "src/kv/block_env.h"
#include "src/kv/kv_store.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace blockhead {
namespace {

std::string KeyOf(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%08llu", static_cast<unsigned long long>(n));
  return buf;
}

std::string ValueOf(std::uint64_t n) {
  std::string v = "value-" + std::to_string(n);
  v.resize(100, 'q');
  return v;
}

TEST(IntegrationTest, KvOnZonefileSurvivesCrashMidChurn) {
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.zns.max_active_zones = 10;
  cfg.zns.max_open_zones = 10;
  ZnsDevice device(cfg.flash, cfg.zns);
  KvConfig kv_cfg;
  kv_cfg.memtable_bytes = 16 * kKiB;
  kv_cfg.level_base_bytes = 256 * kKiB;
  kv_cfg.max_levels = 4;

  std::map<std::string, std::string> truth;
  {
    auto fs = ZoneFileSystem::Format(&device, ZoneFileConfig{}, 0);
    ASSERT_TRUE(fs.ok());
    ZoneEnv env(fs.value().get());
    auto store = KvStore::Open(&env, kv_cfg, 0);
    ASSERT_TRUE(store.ok());
    SimTime t = 0;
    Rng rng(1);
    for (std::uint64_t i = 0; i < 3000; ++i) {
      const std::uint64_t k = rng.NextBelow(600);
      auto p = store.value()->Put(KeyOf(k), ValueOf(i), t);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      t = std::max(t, p.value());
      truth[KeyOf(k)] = ValueOf(i);
    }
    ASSERT_TRUE(store.value()->Flush(t).ok());
    // Crash: both the store and the filesystem objects are dropped without shutdown.
  }

  auto fs = ZoneFileSystem::Mount(&device, ZoneFileConfig{}, 0);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE(fs.value()->CheckConsistency().ok());
  ZoneEnv env(fs.value().get());
  auto store = KvStore::Open(&env, kv_cfg, 0);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& [key, value] : truth) {
    auto got = store.value()->Get(key, 0);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->found) << key;
    ASSERT_EQ(got->value, value) << key;
  }
  // And the recovered store keeps working.
  ASSERT_TRUE(store.value()->Put("post-crash", "alive", 0).ok());
  auto got = store.value()->Get("post-crash", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->found);
}

TEST(IntegrationTest, KvOnBlockOnZnsStack) {
  // Three layers deep: KV -> BlockEnv -> host-FTL block device -> ZNS device. Exercises the
  // BlockDevice abstraction's composability.
  MatchedConfig cfg = MatchedConfig::Small();
  ZnsDevice device(cfg.flash, cfg.zns);
  HostFtlBlockDevice block(&device, HostFtlConfig{});
  BlockEnv env(&block);
  // The in-place metadata region is reserved up front; file data never lands in it.
  ASSERT_LT(BlockEnv::kMetadataRegionPages, block.num_blocks() / 2);
  ASSERT_EQ(env.FreePages(), block.num_blocks() - BlockEnv::kMetadataRegionPages);
  KvConfig kv_cfg;
  kv_cfg.memtable_bytes = 16 * kKiB;
  kv_cfg.level_base_bytes = 256 * kKiB;
  kv_cfg.max_levels = 4;
  auto store = KvStore::Open(&env, kv_cfg, 0);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SimTime t = 0;
  Rng rng(2);
  std::map<std::string, std::string> truth;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.NextBelow(500);
    auto p = store.value()->Put(KeyOf(k), ValueOf(i), t);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    t = std::max(t, p.value());
    truth[KeyOf(k)] = ValueOf(i);
    block.Pump(t, false, 1);
  }
  for (const auto& [key, value] : truth) {
    auto got = store.value()->Get(key, t);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->found) << key;
    ASSERT_EQ(got->value, value);
  }
  EXPECT_TRUE(block.CheckConsistency().ok());
}

TEST(IntegrationTest, CacheOverEmulatedBlockDevice) {
  // The DRAM-coalescing cache runs unchanged over the block-on-ZNS device: the paper's "build
  // other abstractions on top" claim (§2.3).
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.flash.store_data = false;
  ZnsDevice device(cfg.flash, cfg.zns);
  HostFtlBlockDevice block(&device, HostFtlConfig{});
  BlockCacheConfig cache_cfg;
  cache_cfg.segment_pages = 32;
  BlockFlashCache cache(&block, cache_cfg);
  SimTime t = 0;
  Rng rng(3);
  for (std::uint64_t n = 0; n < 20000; ++n) {
    const std::uint64_t key = rng.NextBelow(3000);
    auto got = cache.Get(key, t);
    ASSERT_TRUE(got.ok());
    t = std::max(t, got->completion);
    if (!got->hit) {
      auto put = cache.Put(key, 4096 + static_cast<std::uint32_t>(rng.NextBelow(4096)), t);
      ASSERT_TRUE(put.ok()) << put.status().ToString();
      t = std::max(t, put.value());
    }
    block.Pump(t, false, 1);
  }
  EXPECT_GT(cache.stats().HitRatio(), 0.3);
  EXPECT_TRUE(block.CheckConsistency().ok());
}

TEST(IntegrationTest, MatchedDevicesUnderSameWorkload) {
  // The comparison harness end to end: one workload definition, two devices, coherent result
  // structures. (Shape assertions live in the benches; here we assert the plumbing.)
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.flash.store_data = false;
  cfg.flash.timing = FlashTiming::FastForTests();
  MatchedPair pair = MakeMatchedPair(cfg);
  ASSERT_TRUE(SequentialFill(*pair.conventional, 0.9, 0).ok());

  RandomWorkloadConfig wl;
  wl.lba_space = pair.conventional->num_blocks();
  wl.read_fraction = 0.5;
  wl.seed = 4;
  RandomWorkload gen(wl);
  DriverOptions opts;
  opts.ops = 20000;
  const RunResult conv = RunClosedLoop(*pair.conventional, gen, opts);
  ASSERT_TRUE(conv.status.ok()) << conv.status.ToString();
  EXPECT_EQ(conv.reads + conv.writes, opts.ops);
  EXPECT_GE(pair.conventional->WriteAmplification(), 1.0);

  HostFtlBlockDevice block(pair.zns.get(), HostFtlConfig{});
  ASSERT_TRUE(SequentialFill(block, 0.9, 0).ok());
  RandomWorkloadConfig wl2 = wl;
  wl2.lba_space = block.num_blocks();
  RandomWorkload gen2(wl2);
  DriverOptions opts2;
  opts2.ops = 20000;
  opts2.maintenance_hook = [&block](SimTime now, bool reads) { block.Pump(now, reads, 1); };
  const RunResult zns = RunClosedLoop(block, gen2, opts2);
  ASSERT_TRUE(zns.status.ok()) << zns.status.ToString();
  EXPECT_EQ(zns.reads + zns.writes, opts2.ops);
  EXPECT_TRUE(block.CheckConsistency().ok());
}

TEST(IntegrationTest, EnduranceExhaustionShrinksZnsStack) {
  // Wear the flash out underneath a live zonefile: zones shrink/offline on reset, the
  // filesystem keeps functioning until space truly runs out, and never corrupts.
  FlashConfig flash;
  flash.geometry = FlashGeometry::Small();
  flash.timing = FlashTiming::FastForTests();
  flash.timing.endurance_cycles = 6;  // Very short-lived cells.
  ZnsConfig zns_cfg;
  zns_cfg.max_active_zones = 10;
  zns_cfg.max_open_zones = 10;
  ZnsDevice device(flash, zns_cfg);
  auto fs = ZoneFileSystem::Format(&device, ZoneFileConfig{}, 0);
  ASSERT_TRUE(fs.ok());
  SimTime t = 0;
  const std::vector<std::uint8_t> payload(8 * 4096, 0);
  std::uint64_t created = 0;
  bool wore_out = false;
  for (std::uint64_t i = 0; i < 30000; ++i) {
    const std::string name = "f" + std::to_string(i);
    auto c = fs.value()->Create(name, Lifetime::kShort, t);
    if (!c.ok()) {
      wore_out = true;
      break;
    }
    auto a = fs.value()->Append(name, payload, t);
    if (!a.ok()) {
      wore_out = true;
      break;
    }
    t = a.value();
    if (!fs.value()->Sync(name, t).ok()) {
      wore_out = true;
      break;
    }
    ++created;
    if (i >= 4) {
      auto d = fs.value()->Delete("f" + std::to_string(i - 4), t);
      if (!d.ok()) {
        wore_out = true;
        break;
      }
    }
    fs.value()->Pump(t, false, 1);
  }
  EXPECT_TRUE(wore_out) << "endurance=6 must exhaust the device";
  EXPECT_GT(created, 100u) << "the stack should survive well past the first failures";
  EXPECT_TRUE(fs.value()->CheckConsistency().ok());
  // The device must show real wear damage.
  std::uint32_t offline = 0;
  for (std::uint32_t z = 0; z < device.num_zones(); ++z) {
    if (device.zone(ZoneId{z}).state == ZoneState::kOffline ||
        device.zone(ZoneId{z}).capacity_pages < device.zone_size_pages()) {
      ++offline;
    }
  }
  EXPECT_GT(offline, 0u);
}

}  // namespace
}  // namespace blockhead
