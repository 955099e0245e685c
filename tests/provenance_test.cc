// Write-provenance ledger tests: conservation (per-cause sums equal the flash device's own
// totals in every stack configuration), the factorized-WA telescoping identity, ledger dump
// determinism, and the bench-teardown span finalization fix.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/cache/flash_cache.h"
#include "src/core/matched_pair.h"
#include "src/hostftl/host_ftl.h"
#include "src/kv/env.h"
#include "src/kv/kv_store.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/zonefile/zone_file_system.h"

namespace blockhead {
namespace {

// The invariant everything rests on: the ledger's totals equal the flash device's own
// counters, and the per-cause matrix sums back to those totals (no write is double-counted or
// dropped, whatever scopes were open).
void ExpectConservation(const WriteProvenance& provenance, const std::string& device,
                        const FlashStats& flash) {
  const WriteProvenance::DeviceLedger* ledger = provenance.FindDevice(device);
  ASSERT_NE(ledger, nullptr) << device;
  EXPECT_EQ(ledger->total_pages, flash.total_pages_programmed());
  EXPECT_EQ(ledger->host_pages, flash.host_pages_programmed);
  EXPECT_EQ(ledger->total_erases, flash.blocks_erased);
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  for (int c = 0; c < kWriteCauseCount; ++c) {
    programs += WriteProvenance::ProgramCount(*ledger, static_cast<WriteCause>(c));
    erases += WriteProvenance::EraseCount(*ledger, static_cast<WriteCause>(c));
  }
  EXPECT_EQ(programs, ledger->total_pages);
  EXPECT_EQ(erases, ledger->total_erases);
}

void ExpectFactorizationIdentity(const WriteProvenance& provenance,
                                 const std::vector<std::string>& domains,
                                 const std::string& device) {
  const WriteProvenance::FactorizedWa wa = provenance.Factorize(domains, device);
  ASSERT_EQ(wa.factors.size(), domains.size() + 1);
  for (const auto& f : wa.factors) {
    EXPECT_GT(f.factor, 0.0) << f.from << "->" << f.to;
  }
  EXPECT_NEAR(wa.product, wa.end_to_end, 1e-9);
}

TEST(ProvenanceTest, ScopeStackNestsAndToleratesNull) {
  WriteProvenance p;
  EXPECT_EQ(p.current_cause(), WriteCause::kHostWrite);
  EXPECT_EQ(p.current_layer(), StackLayer::kHost);
  {
    WriteProvenance::CauseScope outer(&p, WriteCause::kLsmCompaction, StackLayer::kKv);
    EXPECT_EQ(p.current_cause(), WriteCause::kLsmCompaction);
    {
      WriteProvenance::CauseScope inner(&p, WriteCause::kZoneCompaction, StackLayer::kZoneFs);
      EXPECT_EQ(p.current_cause(), WriteCause::kZoneCompaction);
      EXPECT_EQ(p.current_layer(), StackLayer::kZoneFs);
      WriteProvenance::CauseScope noop(nullptr, WriteCause::kPadding, StackLayer::kFlash);
      EXPECT_EQ(p.open_scopes(), 2u);
    }
    EXPECT_EQ(p.current_cause(), WriteCause::kLsmCompaction);
  }
  EXPECT_EQ(p.current_cause(), WriteCause::kHostWrite);

  // Direct recording lands in the innermost scope's cell.
  WriteProvenance::DeviceLedger* ledger = p.RegisterDevice("dev", 8, 100, Bytes{4096});
  {
    WriteProvenance::CauseScope gc(&p, WriteCause::kDeviceGC, StackLayer::kFtl);
    p.RecordProgram(ledger, /*host_op=*/false, 10);
    p.RecordErase(ledger, 20);
  }
  p.RecordProgram(ledger, /*host_op=*/true, 30);
  EXPECT_EQ(WriteProvenance::ProgramCount(*ledger, WriteCause::kDeviceGC), 1u);
  EXPECT_EQ(WriteProvenance::ProgramCount(*ledger, WriteCause::kHostWrite), 1u);
  EXPECT_EQ(WriteProvenance::EraseCount(*ledger, WriteCause::kDeviceGC), 1u);
  EXPECT_EQ(ledger->total_pages, 2u);
  EXPECT_EQ(ledger->host_pages, 1u);
  EXPECT_EQ(ledger->last_time, 30);
}

TEST(ProvenanceTest, ConventionalGcAndWearMigrationAttribution) {
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.flash.store_data = false;
  cfg.ftl.op_fraction = 0.10;
  cfg.ftl.wear_migrate_interval = 8;
  Telemetry tel;
  ConventionalSsd ssd(cfg.flash, cfg.ftl);
  ssd.AttachTelemetry(&tel, "conv");

  Rng rng(7);
  SimTime t = 0;
  const std::uint64_t logical = ssd.num_blocks();
  for (std::uint64_t i = 0; i < logical * 3; ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(logical)}, 1, t);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    t = std::max(t, w.value());
  }

  ExpectConservation(tel.provenance, "conv.flash", ssd.flash().stats());
  const auto* ledger = tel.provenance.FindDevice("conv.flash");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kDeviceGC), 0u);
  EXPECT_GT(WriteProvenance::EraseCount(*ledger, WriteCause::kDeviceGC), 0u);
  if (ssd.ftl_stats().wear_migrations > 0) {
    EXPECT_GT(WriteProvenance::EraseCount(*ledger, WriteCause::kWearMigration), 0u);
  }
  ExpectFactorizationIdentity(tel.provenance, {}, "conv.flash");

  // The endurance projection sees the churn and reports a finite horizon.
  const auto projection = tel.provenance.ProjectEndurance("conv.flash");
  ASSERT_TRUE(projection.valid);
  EXPECT_GT(projection.erases_per_block_per_day, 0.0);
  EXPECT_GT(projection.projected_days, 0.0);

  // Satellite: the wear summary is exported as a full bucketed histogram.
  bool found_wear_histogram = false;
  for (const auto& entry : tel.registry.Snapshot()) {
    if (entry.name == "conv.flash.wear.erase_count") {
      found_wear_histogram = true;
      ASSERT_EQ(entry.kind, MetricKind::kHistogram);
      EXPECT_EQ(entry.histogram->count(), cfg.flash.geometry.total_blocks());
      EXPECT_GT(entry.histogram->max(), 0u);
    }
  }
  EXPECT_TRUE(found_wear_histogram);
}

TEST(ProvenanceTest, ZonefileCompactionAndPaddingAttribution) {
  MatchedConfig cfg = MatchedConfig::Small();
  Telemetry tel;
  ZnsDevice device(cfg.flash, cfg.zns);
  device.AttachTelemetry(&tel, "zns");
  auto fs = ZoneFileSystem::Format(&device, ZoneFileConfig{}, 0);
  ASSERT_TRUE(fs.ok());
  fs.value()->AttachTelemetry(&tel, "zfs");

  SimTime t = 0;
  std::vector<std::uint8_t> blob(40 * 4096 + 904, 0xab);  // Partial tail: padded on Sync.
  std::vector<std::string> live;
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs.value()->Create(name, Lifetime::kShort, t).ok());
    auto a = fs.value()->Append(name, blob, t);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    t = std::max(t, a.value());
    ASSERT_TRUE(fs.value()->Sync(name, t).ok());
    live.push_back(name);
    if (live.size() > 12) {
      const std::size_t idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      ASSERT_TRUE(fs.value()->Delete(live[idx], t).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    fs.value()->Pump(t, false, 4);
  }

  ExpectConservation(tel.provenance, "zns.flash", device.flash().stats());
  const auto* ledger = tel.provenance.FindDevice("zns.flash");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kPadding), 0u);
  if (fs.value()->stats().gc_pages_copied > 0) {
    EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kZoneCompaction), 0u);
  }
  ExpectFactorizationIdentity(tel.provenance, {"zfs"}, "zns.flash");
}

TEST(ProvenanceTest, HostFtlReclaimAttribution) {
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.flash.store_data = false;
  Telemetry tel;
  ZnsDevice device(cfg.flash, cfg.zns);
  device.AttachTelemetry(&tel, "zns");
  HostFtlBlockDevice block(&device, HostFtlConfig{});
  block.AttachTelemetry(&tel, "emul");

  Rng rng(23);
  SimTime t = 0;
  const std::uint64_t logical = block.num_blocks();
  for (std::uint64_t i = 0; i < logical * 3; ++i) {
    auto w = block.WriteBlocks(Lba{rng.NextBelow(logical)}, 1, t);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    t = std::max(t, w.value());
    block.Pump(t, false, 1);
  }

  ExpectConservation(tel.provenance, "zns.flash", device.flash().stats());
  const auto* ledger = tel.provenance.FindDevice("zns.flash");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kBlockEmulationReclaim), 0u);
  EXPECT_GT(WriteProvenance::EraseCount(*ledger, WriteCause::kBlockEmulationReclaim), 0u);
  ExpectFactorizationIdentity(tel.provenance, {"emul"}, "zns.flash");

  // The chain's domain counter matches the layer's own accounting exactly.
  EXPECT_EQ(tel.provenance.DomainBytes("emul").value(),
            block.stats().host_pages_written * device.page_size());
}

TEST(ProvenanceTest, KvFlushAndCompactionAttribution) {
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.zns.max_active_zones = 10;
  cfg.zns.max_open_zones = 10;
  Telemetry tel;
  ZnsDevice device(cfg.flash, cfg.zns);
  device.AttachTelemetry(&tel, "zns");
  auto fs = ZoneFileSystem::Format(&device, ZoneFileConfig{}, 0);
  ASSERT_TRUE(fs.ok());
  fs.value()->AttachTelemetry(&tel, "zfs");
  ZoneEnv env(fs.value().get());
  KvConfig kv_cfg;
  kv_cfg.memtable_bytes = 16 * kKiB;
  kv_cfg.level_base_bytes = 64 * kKiB;
  kv_cfg.max_levels = 4;
  auto store = KvStore::Open(&env, kv_cfg, 0);
  ASSERT_TRUE(store.ok());
  store.value()->AttachTelemetry(&tel, "kv");

  Rng rng(1);
  SimTime t = 0;
  std::string value(100, 'q');
  for (std::uint64_t i = 0; i < 2500; ++i) {
    auto p = store.value()->Put("k" + std::to_string(rng.NextBelow(500)), value, t);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    t = std::max(t, p.value());
  }
  ASSERT_TRUE(store.value()->Flush(t).ok());

  ExpectConservation(tel.provenance, "zns.flash", device.flash().stats());
  const auto* ledger = tel.provenance.FindDevice("zns.flash");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kLsmFlush), 0u);
  EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kLsmCompaction), 0u);
  ExpectFactorizationIdentity(tel.provenance, {"kv", "zfs"}, "zns.flash");
}

TEST(ProvenanceTest, CacheRecyclingAttribution) {
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.flash.store_data = false;
  Telemetry tel;
  ConventionalSsd ssd(cfg.flash, cfg.ftl);
  ssd.AttachTelemetry(&tel, "conv");
  BlockCacheConfig cache_cfg;
  cache_cfg.coalesce_writes = true;
  BlockFlashCache cache(&ssd, cache_cfg);
  cache.AttachTelemetry(&tel, "cache");

  SimTime t = 0;
  Rng rng(9);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    auto put = cache.Put(rng.NextBelow(1200), 8 * 1024, t);
    ASSERT_TRUE(put.ok()) << put.status().ToString();
    t = std::max(t, put.value());
  }
  ASSERT_GT(cache.stats().segments_recycled, 0u);

  ExpectConservation(tel.provenance, "conv.flash", ssd.flash().stats());
  const auto* ledger = tel.provenance.FindDevice("conv.flash");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kCacheEviction), 0u);
  ExpectFactorizationIdentity(tel.provenance, {"cache"}, "conv.flash");
}

TEST(ProvenanceTest, ZnsCacheEvictionErasesAttributed) {
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.flash.store_data = false;
  Telemetry tel;
  ZnsDevice device(cfg.flash, cfg.zns);
  device.AttachTelemetry(&tel, "zns");
  ZnsFlashCache cache(&device, ZnsCacheConfig{});
  cache.AttachTelemetry(&tel, "cache");

  SimTime t = 0;
  Rng rng(9);
  for (std::uint64_t i = 0; i < 6000; ++i) {
    auto put = cache.Put(i, 16 * 1024, t);
    ASSERT_TRUE(put.ok()) << put.status().ToString();
    t = std::max(t, put.value());
  }
  ASSERT_GT(cache.stats().segments_recycled, 0u);

  ExpectConservation(tel.provenance, "zns.flash", device.flash().stats());
  const auto* ledger = tel.provenance.FindDevice("zns.flash");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(WriteProvenance::EraseCount(*ledger, WriteCause::kCacheEviction), 0u);
}

// Same seed, same stack -> byte-identical ledger dump (the serialization benches write via
// --ledger).
TEST(ProvenanceTest, SameSeedLedgerDumpsAreByteIdentical) {
  auto run = [] {
    MatchedConfig cfg = MatchedConfig::Small();
    cfg.flash.store_data = false;
    Telemetry tel;
    ZnsDevice device(cfg.flash, cfg.zns);
    device.AttachTelemetry(&tel, "zns");
    HostFtlBlockDevice block(&device, HostFtlConfig{});
    block.AttachTelemetry(&tel, "emul");
    Rng rng(23);
    SimTime t = 0;
    const std::uint64_t logical = block.num_blocks();
    for (std::uint64_t i = 0; i < logical * 2; ++i) {
      auto w = block.WriteBlocks(Lba{rng.NextBelow(logical)}, 1, t);
      EXPECT_TRUE(w.ok());
      t = std::max(t, w.value());
      block.Pump(t, false, 1);
    }
    return tel.provenance.Dump();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("device zns.flash"), std::string::npos);
  EXPECT_NE(a.find("block_emulation_reclaim"), std::string::npos);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace blockhead
