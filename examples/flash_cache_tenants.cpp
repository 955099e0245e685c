// Example: two motivating workloads from the paper's intro on one ZNS device —
//   (1) a zone-per-segment flash cache (CacheLib/RIPQ-style) absorbing a zipfian object load;
//   (2) bursty tenants sharing the device's active-zone budget (§4.2).
//
//   build/examples/flash_cache_tenants [cache_ops] [tenants]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/alloc/zone_budget.h"
#include "src/cache/flash_cache.h"
#include "src/core/matched_pair.h"
#include "src/util/rng.h"

using namespace blockhead;

int main(int argc, char** argv) {
  const std::uint64_t cache_ops = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const std::uint32_t tenants = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;

  // --- Part 1: flash cache ---
  std::printf("=== Zone-per-segment flash cache ===\n");
  MatchedConfig cfg = MatchedConfig::Small();
  cfg.zns.max_active_zones = 6;
  cfg.zns.max_open_zones = 6;
  ZnsDevice cache_dev(cfg.flash, cfg.zns);
  ZnsFlashCache cache(&cache_dev);

  ZipfGenerator keys(20000, 0.9, 1);
  Rng rng(2);
  SimTime t = 0;
  for (std::uint64_t n = 0; n < cache_ops; ++n) {
    const std::uint64_t key = keys.Next();
    auto got = cache.Get(key, t);
    if (!got.ok()) {
      std::fprintf(stderr, "get: %s\n", got.status().ToString().c_str());
      return 1;
    }
    t = std::max(t, got->completion);
    if (!got->hit) {
      auto put = cache.Put(key, 2048 + static_cast<std::uint32_t>(rng.NextBelow(14000)), t);
      if (!put.ok()) {
        std::fprintf(stderr, "put: %s\n", put.status().ToString().c_str());
        return 1;
      }
      t = std::max(t, put.value());
    }
  }
  const FlashStats& fs = cache_dev.flash().stats();
  std::printf("ops=%llu hit ratio=%.3f evictions=%llu zone recycles=%llu\n",
              static_cast<unsigned long long>(cache_ops), cache.stats().HitRatio(),
              static_cast<unsigned long long>(cache.stats().evicted_objects),
              static_cast<unsigned long long>(cache.stats().segments_recycled));
  std::printf("device WA=%.2fx (GC copies: %llu) staging DRAM: %llu bytes\n\n",
              static_cast<double>(fs.total_pages_programmed()) /
                  static_cast<double>(fs.host_pages_programmed),
              static_cast<unsigned long long>(fs.internal_pages_programmed),
              static_cast<unsigned long long>(cache.StagingDramBytes()));

  // --- Part 2: multi-tenant zone budgeting ---
  std::printf("=== Bursty tenants sharing the active-zone budget ===\n");
  MatchedConfig mt_cfg = MatchedConfig::Bench();
  mt_cfg.zns.max_active_zones = 14;
  mt_cfg.zns.max_open_zones = 14;
  mt_cfg.zns.planes_per_zone = 4;
  std::vector<TenantConfig> tenant_cfgs(tenants);
  for (std::uint32_t i = 0; i < tenants; ++i) {
    tenant_cfgs[i].seed = i + 1;
    tenant_cfgs[i].desired_zones = 10;
  }

  ZnsDevice dev_a(mt_cfg.flash, mt_cfg.zns);
  StaticPartitionBudget stat(14 / tenants * tenants, tenants);
  const MultiTenantResult r_static = RunMultiTenantSim(dev_a, stat, tenant_cfgs,
                                                       200 * kMillisecond);
  ZnsDevice dev_b(mt_cfg.flash, mt_cfg.zns);
  DemandBudget demand(14, tenants, 1);
  const MultiTenantResult r_demand = RunMultiTenantSim(dev_b, demand, tenant_cfgs,
                                                       200 * kMillisecond);

  std::printf("static partition: %6.1f MiB written, %2.0f%% slot utilization\n",
              static_cast<double>(r_static.total_pages) * 4096 / kMiB,
              100.0 * r_static.slot_utilization);
  std::printf("demand based:     %6.1f MiB written, %2.0f%% slot utilization  (%.2fx)\n",
              static_cast<double>(r_demand.total_pages) * 4096 / kMiB,
              100.0 * r_demand.slot_utilization,
              static_cast<double>(r_demand.total_pages) /
                  static_cast<double>(r_static.total_pages));
  return 0;
}
