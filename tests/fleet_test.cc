// Fleet subsystem tests: consistent-hash router properties, admission control, rebalancer
// planning, migration correctness (data integrity + kFleetMigration attribution), provenance
// conservation and the factorized-WA identity across fleet configs, wear-skew reduction with
// rebalancing, and same-seed byte-identical determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/telemetry/aggregate.h"
#include "src/telemetry/sink.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace blockhead {
namespace {

// Ledger-internal conservation: the per-cause matrix must sum back to the device totals (no
// write double-counted or dropped whatever scopes were open during fleet operation).
void ExpectLedgerConservation(const WriteProvenance& provenance, const std::string& device) {
  const WriteProvenance::DeviceLedger* ledger = provenance.FindDevice(device);
  ASSERT_NE(ledger, nullptr) << device;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  for (int c = 0; c < kWriteCauseCount; ++c) {
    programs += WriteProvenance::ProgramCount(*ledger, static_cast<WriteCause>(c));
    erases += WriteProvenance::EraseCount(*ledger, static_cast<WriteCause>(c));
  }
  EXPECT_EQ(programs, ledger->total_pages) << device;
  EXPECT_EQ(erases, ledger->total_erases) << device;
  EXPECT_LE(ledger->host_pages, ledger->total_pages) << device;
}

void ExpectFactorizationIdentity(const WriteProvenance& provenance,
                                 const std::vector<std::string>& domains,
                                 const std::string& device) {
  const WriteProvenance::FactorizedWa wa = provenance.Factorize(domains, device);
  ASSERT_EQ(wa.factors.size(), domains.size() + 1);
  for (const auto& f : wa.factors) {
    EXPECT_GT(f.factor, 0.0) << f.from << "->" << f.to;
  }
  EXPECT_NEAR(wa.product, wa.end_to_end, 1e-9) << device;
}

// Checks every device ledger in `fleet`: conservation plus the telescoping WA identity. ZNS
// devices route host writes through the emulation domain ("dev"), conventional devices go
// straight to their flash.
void ExpectFleetProvenanceInvariants(Fleet& fleet) {
  for (std::uint32_t d = 0; d < fleet.num_devices(); ++d) {
    const WriteProvenance& prov = fleet.device_telemetry(d)->provenance;
    const std::string& ledger = fleet.device_ledger_name(d);
    ExpectLedgerConservation(prov, ledger);
    if (fleet.device_kind(d) == DeviceKind::kZns) {
      ExpectFactorizationIdentity(prov, {"dev"}, ledger);
    } else {
      ExpectFactorizationIdentity(prov, {}, ledger);
    }
  }
}

TEST(ShardRouterTest, PreferenceOrderCoversEveryDeviceExactlyOnce) {
  RouterConfig cfg;
  cfg.num_shards = 32;
  cfg.seed = 7;
  ShardRouter router(cfg, 5);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    const std::vector<std::uint32_t> order = router.PreferenceOrder(ShardId{s});
    ASSERT_EQ(order.size(), 5u);
    std::set<std::uint32_t> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), 5u) << "shard " << s;
    EXPECT_EQ(*unique.begin(), 0u);
    EXPECT_EQ(*unique.rbegin(), 4u);
  }
  // Deterministic: an identical router yields identical orders.
  ShardRouter router2(cfg, 5);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    EXPECT_EQ(router.PreferenceOrder(ShardId{s}), router2.PreferenceOrder(ShardId{s}));
  }
}

TEST(ShardRouterTest, PlacementSpreadsAcrossDevices) {
  RouterConfig cfg;
  cfg.num_shards = 64;
  ShardRouter router(cfg, 8);
  std::vector<std::uint32_t> primary_count(8, 0);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    ++primary_count[router.PreferenceOrder(ShardId{s})[0]];
  }
  // Consistent hashing with 64 vnodes per device should give every device at least one
  // primary out of 64 shards (a fully starved device would defeat the point).
  for (std::uint32_t d = 0; d < 8; ++d) {
    EXPECT_GT(primary_count[d], 0u) << "device " << d;
  }
}

TEST(ShardRouterTest, ReadReplicaPolicies) {
  const std::vector<std::uint32_t> replicas = {3, 1, 4};

  RouterConfig primary;
  primary.read_policy = ReadReplicaPolicy::kPrimaryOnly;
  ShardRouter p(primary, 5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(p.PickReadReplica(ShardId{0}, replicas, {}), 0u);
  }

  RouterConfig rr;
  rr.read_policy = ReadReplicaPolicy::kRoundRobin;
  ShardRouter r(rr, 5);
  std::vector<std::uint32_t> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(r.PickReadReplica(ShardId{3}, replicas, {}));
  }
  EXPECT_EQ(picks, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));

  RouterConfig lp;
  lp.read_policy = ReadReplicaPolicy::kLeastPending;
  ShardRouter l(lp, 5);
  const std::vector<std::uint32_t> pending = {9, 2, 0, 7, 5};  // Indexed by device ordinal.
  // Replica devices are {3, 1, 4} with pending {7, 2, 5}: device 1 (replica index 1) wins.
  EXPECT_EQ(l.PickReadReplica(ShardId{0}, replicas, pending), 1u);
}

TEST(ShardAdmissionTest, QueueDepthCapShedsAndCompletionsFreeSlots) {
  AdmissionConfig cfg;
  cfg.max_queue_depth = 2;
  ShardAdmission adm(cfg, 4);
  EXPECT_EQ(adm.Admit(ShardId{1}, 0, 1, false), AdmissionDecision::kAdmit);
  EXPECT_EQ(adm.Admit(ShardId{1}, 0, 1, false), AdmissionDecision::kAdmit);
  EXPECT_EQ(adm.Admit(ShardId{1}, 0, 1, false), AdmissionDecision::kShedQueue);
  EXPECT_EQ(adm.outstanding(ShardId{1}), 2u);
  // Other shards are unaffected.
  EXPECT_EQ(adm.Admit(ShardId{2}, 0, 1, false), AdmissionDecision::kAdmit);
  adm.RecordCompletion(ShardId{1});
  EXPECT_EQ(adm.Admit(ShardId{1}, 0, 1, false), AdmissionDecision::kAdmit);
  EXPECT_EQ(adm.shed_queue(ShardId{1}), 1u);
  EXPECT_EQ(adm.total_shed_queue(), 1u);
  EXPECT_EQ(adm.total_admitted(), 4u);
}

TEST(ShardAdmissionTest, TokenBucketRateLimitsWritesOnly) {
  AdmissionConfig cfg;
  cfg.tokens_per_second = 1'000'000;  // 1 page per microsecond.
  cfg.burst_pages = 4;
  cfg.max_queue_depth = 0;  // Unlimited depth; isolate the rate limiter.
  ShardAdmission adm(cfg, 1);
  // The burst admits 4 write pages at t=0, then the bucket is dry.
  EXPECT_EQ(adm.Admit(ShardId{0}, 0, 4, true), AdmissionDecision::kAdmit);
  EXPECT_EQ(adm.Admit(ShardId{0}, 0, 1, true), AdmissionDecision::kShedRate);
  // Reads are exempt from the rate limit.
  EXPECT_EQ(adm.Admit(ShardId{0}, 0, 8, false), AdmissionDecision::kAdmit);
  // After 2us the bucket holds 2 tokens again.
  EXPECT_EQ(adm.Admit(ShardId{0}, 2 * kMicrosecond, 2, true), AdmissionDecision::kAdmit);
  EXPECT_EQ(adm.Admit(ShardId{0}, 2 * kMicrosecond, 1, true), AdmissionDecision::kShedRate);
  EXPECT_EQ(adm.total_shed_rate(), 2u);
}

TEST(RebalancerTest, PlansOnlyAboveSkewThresholdAndRespectsPlacement) {
  RebalancerConfig cfg;
  cfg.plan_interval = kMillisecond;
  cfg.skew_threshold = 1.5;
  cfg.min_erases = 10;
  Rebalancer reb(cfg);

  std::vector<DeviceWearSnapshot> devices = {
      {0, 30.0, 300, 0},  // Most worn; a source needs no free slot.
      {1, 5.0, 50, 2},
      {2, 7.0, 70, 1},
  };
  const std::vector<std::uint64_t> hotness = {10, 500, 20};  // Shard 1 is hottest.
  const std::vector<std::vector<std::uint32_t>> shard_devices = {{0, 1}, {0, 2}, {1, 2}};

  EXPECT_GT(Rebalancer::WearSkew(devices), 1.5);
  auto plan = reb.Plan(kMillisecond, devices, hotness, shard_devices);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->shard.value(), 1u);   // Hottest shard on the worn device.
  EXPECT_EQ(plan->source_device, 0u);   // Max wear.
  EXPECT_EQ(plan->target_device, 1u);   // Least worn with a free slot, not already holding.
  EXPECT_EQ(reb.plans_made(), 1u);

  // Below the threshold: no plan.
  std::vector<DeviceWearSnapshot> flat = {
      {0, 10.0, 100, 1}, {1, 9.0, 90, 1}, {2, 10.0, 100, 1}};
  EXPECT_FALSE(reb.Plan(2 * kMillisecond, flat, hotness, shard_devices).has_value());

  // Interval gating: an immediate retry is suppressed even with skewed wear.
  EXPECT_FALSE(reb.Plan(2 * kMillisecond + 1, devices, hotness, shard_devices).has_value());
}

TEST(FleetTest, RejectsOutOfRangeAndShardCrossingRequests) {
  Fleet fleet(FleetConfig::Mixed(2, 0.5, 11));
  const std::uint64_t shard_pages = fleet.config().shard_pages;
  EXPECT_FALSE(fleet.Write(Lba{fleet.num_pages()}, 1, 0).ok());
  EXPECT_FALSE(fleet.Write(Lba{shard_pages - 1}, 2, 0).ok());  // Crosses a shard boundary.
  EXPECT_TRUE(fleet.Write(Lba{shard_pages - 1}, 1, 0).ok());
  EXPECT_TRUE(fleet.Read(Lba{0}, 1, 0).ok());
}

TEST(FleetTest, WritesReplicateAndReadsSpread) {
  FleetConfig cfg = FleetConfig::Mixed(4, 0.5, 3);
  cfg.router.read_policy = ReadReplicaPolicy::kRoundRobin;
  Fleet fleet(cfg);
  ASSERT_EQ(fleet.num_devices(), 4u);

  RandomWorkloadConfig wl;
  wl.lba_space = fleet.num_pages();
  wl.read_fraction = 0.5;
  wl.io_pages = 2;
  wl.seed = 42;
  RandomWorkload gen(wl);
  FleetDriverOptions opts;
  opts.ops = 4000;
  FleetRunResult result = RunFleetClosedLoop(fleet, gen, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.reads, 0u);
  EXPECT_GT(result.writes, 0u);

  // Every replica receives every write: summed device host pages >= app pages * replicas
  // (device-side maintenance may add more, never less).
  std::uint64_t device_host_pages = 0;
  for (std::uint32_t d = 0; d < fleet.num_devices(); ++d) {
    const auto* ledger =
        fleet.device_telemetry(d)->provenance.FindDevice(fleet.device_ledger_name(d));
    ASSERT_NE(ledger, nullptr);
    device_host_pages += ledger->host_pages;
  }
  EXPECT_GE(device_host_pages, fleet.stats().app_pages_written * cfg.router.replicas);
  ExpectFleetProvenanceInvariants(fleet);
}

TEST(FleetTest, ForcedMigrationCopiesDataFlipsPlacementAndAttributes) {
  FleetConfig cfg = FleetConfig::Mixed(3, 0.34, 5, /*store_data=*/true);
  cfg.rebalancer.enabled = false;  // This test drives the migration by hand.
  Fleet fleet(cfg);

  // Fill shard 0 with a recognizable pattern through the fleet data path.
  const std::uint64_t shard_pages = cfg.shard_pages;
  const std::uint32_t page = fleet.page_size();
  std::vector<std::uint8_t> data(page);
  SimTime t = 0;
  for (std::uint64_t p = 0; p < shard_pages; ++p) {
    for (std::uint32_t i = 0; i < page; ++i) {
      data[i] = static_cast<std::uint8_t>((p * 131 + i) & 0xff);
    }
    auto w = fleet.Write(Lba{p}, 1, t, data);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    t = std::max(t, w.value());
  }

  // Pick a target device that holds no replica of shard 0.
  const auto before = fleet.placement(ShardId{0});
  std::set<std::uint32_t> holders;
  for (const auto& pl : before) {
    holders.insert(pl.device_index);
  }
  ASSERT_EQ(holders.size(), 2u);
  std::uint32_t target = 0;
  while (holders.count(target) != 0) {
    ++target;
  }

  ASSERT_TRUE(fleet.StartMigration(ShardId{0}, 0, target).ok());
  EXPECT_TRUE(fleet.MigrationActive());
  // A second concurrent migration is refused (one at a time).
  EXPECT_FALSE(fleet.StartMigration(ShardId{1}, 0, target).ok());

  // A foreground write during the copy is mirrored to the target.
  auto dual = fleet.Write(Lba{3}, 1, t, data);
  ASSERT_TRUE(dual.ok());
  t = std::max(t, dual.value());
  EXPECT_GT(fleet.stats().dual_write_pages, 0u);

  for (int i = 0; i < 64 && fleet.MigrationActive(); ++i) {
    t += kMicrosecond;
    fleet.Step(t);
  }
  ASSERT_FALSE(fleet.MigrationActive());
  EXPECT_EQ(fleet.stats().migrations_completed, 1u);
  EXPECT_EQ(fleet.stats().migration_pages_copied, shard_pages);

  // Placement flipped to the target; the replica set is still two distinct devices.
  const auto after = fleet.placement(ShardId{0});
  std::set<std::uint32_t> new_holders;
  for (const auto& pl : after) {
    new_holders.insert(pl.device_index);
  }
  EXPECT_EQ(new_holders.count(target), 1u);
  EXPECT_EQ(new_holders.size(), 2u);

  // The copy is attributed to kFleetMigration on the target device's ledger.
  const auto* ledger = fleet.device_telemetry(target)->provenance.FindDevice(
      fleet.device_ledger_name(target));
  ASSERT_NE(ledger, nullptr);
  EXPECT_GE(WriteProvenance::ProgramCount(*ledger, WriteCause::kFleetMigration), 1u);

  // Data written before the migration reads back intact through the fleet. Page 3 carries the
  // dual write's payload (the page-3 pattern was overwritten with `data` as left by the last
  // fill iteration), so skip it in the pattern check.
  std::vector<std::uint8_t> got(page);
  for (std::uint64_t p = 0; p < shard_pages; p += 37) {
    if (p == 3) {
      continue;
    }
    auto r = fleet.Read(Lba{p}, 1, t, got);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (std::uint32_t i = 0; i < page; i += 509) {
      ASSERT_EQ(got[i], static_cast<std::uint8_t>((p * 131 + i) & 0xff))
          << "page " << p << " offset " << i;
    }
  }
  ExpectFleetProvenanceInvariants(fleet);
}

// Provenance conservation + the factorized-WA identity hold, with kFleetMigration in the
// cause matrix, across two distinct fleet configurations (all-conventional and all-ZNS).
TEST(FleetTest, ProvenanceInvariantsAcrossConfigsWithMigration) {
  for (const double zns_fraction : {0.0, 1.0}) {
    FleetConfig cfg = FleetConfig::Mixed(3, zns_fraction, 17);
    cfg.rebalancer.enabled = false;
    Fleet fleet(cfg);

    RandomWorkloadConfig wl;
    wl.lba_space = fleet.num_pages();
    wl.read_fraction = 0.2;
    wl.io_pages = 4;
    wl.distribution = AddressDistribution::kZipfian;
    wl.seed = 99;
    RandomWorkload gen(wl);
    FleetDriverOptions opts;
    opts.ops = 3000;
    FleetRunResult result = RunFleetClosedLoop(fleet, gen, opts);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    SimTime t = result.end;

    // Force one migration so kFleetMigration participates in the matrix.
    const auto holders = fleet.placement(ShardId{0});
    std::set<std::uint32_t> held;
    for (const auto& pl : holders) {
      held.insert(pl.device_index);
    }
    std::uint32_t target = 0;
    while (held.count(target) != 0) {
      ++target;
    }
    ASSERT_TRUE(fleet.StartMigration(ShardId{0}, 0, target).ok());
    for (int i = 0; i < 64 && fleet.MigrationActive(); ++i) {
      t += kMicrosecond;
      fleet.Step(t);
    }
    ASSERT_FALSE(fleet.MigrationActive()) << "zns_fraction " << zns_fraction;

    const auto* ledger = fleet.device_telemetry(target)->provenance.FindDevice(
        fleet.device_ledger_name(target));
    ASSERT_NE(ledger, nullptr);
    EXPECT_GT(WriteProvenance::ProgramCount(*ledger, WriteCause::kFleetMigration), 0u);
    ExpectFleetProvenanceInvariants(fleet);
  }
}

TEST(FleetTest, AdmissionRateLimitShedsUnderPressureAndDriverContinues) {
  FleetConfig cfg = FleetConfig::Mixed(2, 0.5, 29);
  cfg.admission.tokens_per_second = 5'000;  // Far below the workload's per-shard write rate.
  cfg.admission.burst_pages = 16;
  Fleet fleet(cfg);

  RandomWorkloadConfig wl;
  wl.lba_space = fleet.num_pages();
  wl.read_fraction = 0.0;
  wl.io_pages = 4;
  wl.seed = 8;
  RandomWorkload gen(wl);
  FleetDriverOptions opts;
  opts.ops = 2000;
  FleetRunResult result = RunFleetClosedLoop(fleet, gen, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.sheds, 0u);
  EXPECT_EQ(result.sheds, fleet.admission().total_shed());
  EXPECT_GT(fleet.admission().total_shed_rate(), 0u);
  EXPECT_GT(result.writes, 0u);  // Shedding throttles but does not stop the run.
}

TEST(FleetTest, RebalancingReducesWearSkew) {
  auto run = [](bool rebalance) {
    FleetConfig cfg = FleetConfig::Mixed(4, 0.5, 21);
    cfg.rebalancer.enabled = rebalance;
    cfg.rebalancer.skew_threshold = 1.05;
    cfg.rebalancer.min_erases = 32;
    auto fleet = std::make_unique<Fleet>(cfg);
    RandomWorkloadConfig wl;
    wl.lba_space = fleet->num_pages();
    wl.read_fraction = 0.1;
    wl.io_pages = 4;
    wl.distribution = AddressDistribution::kZipfian;
    wl.zipf_theta = 0.99;  // Strongly skewed (ZipfGenerator takes any finite theta > 0 but 1).
    wl.seed = 77;
    RandomWorkload gen(wl);
    FleetDriverOptions opts;
    opts.ops = 24000;
    opts.step_interval = 4;
    FleetRunResult result = RunFleetClosedLoop(*fleet, gen, opts);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return std::pair<double, std::uint64_t>(fleet->WearSkew(),
                                            fleet->stats().migrations_completed);
  };

  const auto [skew_off, migrations_off] = run(false);
  const auto [skew_on, migrations_on] = run(true);
  EXPECT_EQ(migrations_off, 0u);
  EXPECT_GE(migrations_on, 1u);
  EXPECT_GT(skew_off, 1.0);
  EXPECT_LT(skew_on, skew_off);
}

TEST(FleetTest, SameSeedRunsAreByteIdentical) {
  auto run = [] {
    FleetConfig cfg = FleetConfig::Mixed(8, 0.5, 13);
    Telemetry tel;
    Fleet fleet(cfg);
    fleet.AttachTelemetry(&tel, "fleet");
    RandomWorkloadConfig wl;
    wl.lba_space = fleet.num_pages();
    wl.read_fraction = 0.3;
    wl.io_pages = 4;
    wl.distribution = AddressDistribution::kZipfian;
    wl.seed = 55;
    RandomWorkload gen(wl);
    FleetDriverOptions opts;
    opts.ops = 5000;
    FleetRunResult result = RunFleetClosedLoop(fleet, gen, opts);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();

    std::string blob;
    JsonLinesSink().Render("fleet_test", tel.registry.Snapshot(), &blob);
    for (std::uint32_t d = 0; d < fleet.num_devices(); ++d) {
      blob += fleet.device_telemetry(d)->provenance.Dump();
    }
    return blob;
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("fleet.wear.skew"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(FleetTest, PublishedMetricsMergeDeviceHistogramsAndShardTails) {
  FleetConfig cfg = FleetConfig::Mixed(4, 0.25, 31);
  Telemetry tel;
  Fleet fleet(cfg);
  fleet.AttachTelemetry(&tel, "fleet");

  RandomWorkloadConfig wl;
  wl.lba_space = fleet.num_pages();
  wl.read_fraction = 0.5;
  wl.io_pages = 2;
  wl.seed = 6;
  RandomWorkload gen(wl);
  FleetDriverOptions opts;
  opts.ops = 3000;
  FleetRunResult result = RunFleetClosedLoop(fleet, gen, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  Histogram probe;
  std::vector<MetricRegistry*> regs;
  for (std::uint32_t d = 0; d < fleet.num_devices(); ++d) {
    regs.push_back(fleet.device_registry(d));
  }
  ASSERT_EQ(MergeHistogramAcross(regs, "host.read.latency_ns", &probe), regs.size());
  const std::uint64_t device_reads = probe.count();

  bool found_merged = false;
  bool found_shard_tail = false;
  bool found_wa = false;
  for (const auto& entry : tel.registry.Snapshot()) {
    if (entry.name == "fleet.read.latency_ns") {
      found_merged = true;
      ASSERT_EQ(entry.kind, MetricKind::kHistogram);
      // The fleet-level merged histogram holds exactly the per-device read samples.
      EXPECT_EQ(entry.histogram->count(), device_reads);
      EXPECT_EQ(entry.histogram->count(), result.reads);
    }
    if (entry.name == "fleet.shard00.p99_ns") {
      found_shard_tail = true;
    }
    if (entry.name == "fleet.end_to_end_wa") {
      found_wa = true;
      EXPECT_GE(entry.gauge, static_cast<double>(cfg.router.replicas));
    }
  }
  EXPECT_TRUE(found_merged);
  EXPECT_TRUE(found_shard_tail);
  EXPECT_TRUE(found_wa);
}

}  // namespace
}  // namespace blockhead
