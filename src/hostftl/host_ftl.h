// Host-side block device emulated over a ZNS SSD (the dm-zoned role from §2.3/§2.5: "it was
// straightforward to implement the block interface on the host using ZNS SSDs").
//
// A log-structured host FTL: logical pages are appended to an open "host" zone; overwrites
// invalidate the old location; reclamation picks the zone with the least live data, copies the
// live pages to a separate relocation zone, and resets the victim. The pieces a conventional
// SSD hides in firmware are all visible and tunable here:
//
//   * spare capacity is a host choice (op_fraction), not a hardware constant;
//   * GC copies can ride the device's simple-copy command (no host PCIe traffic, §2.3) or the
//     plain read+write path — bench_simple_copy (E10) measures the difference;
//   * GC *timing* is a pluggable GcScheduler policy — bench_sched_policies (E11).

#ifndef BLOCKHEAD_SRC_HOSTFTL_HOST_FTL_H_
#define BLOCKHEAD_SRC_HOSTFTL_HOST_FTL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/block/block_device.h"
#include "src/core/strong_id.h"
#include "src/sched/gc_scheduler.h"
#include "src/util/status.h"
#include "src/util/types.h"
#include "src/zns/zns_device.h"

namespace blockhead {

struct HostFtlConfig {
  // Zones reserved as host-side spare capacity, as a fraction of exported capacity (same
  // semantics as FtlConfig::op_fraction).
  double op_fraction = 0.20;
  // Copy live pages during GC with the device's simple-copy command instead of host
  // read+write.
  bool use_simple_copy = true;
  // Issue host writes as zone appends instead of write-pointer writes.
  bool use_append = false;
  // Opportunistic reclamation only touches zones at most this live (copying nearly-live zones
  // costs more than it reclaims). Critical reclamation ignores it.
  double gc_max_live_fraction = 0.90;
  // Pages relocated per Pump step: reclamation trickles alongside foreground I/O instead of
  // copying a whole zone in one burst.
  std::uint32_t gc_step_pages = 32;
  GcSchedulerConfig sched;
};

struct HostFtlStats {
  std::uint64_t host_pages_written = 0;
  std::uint64_t host_pages_read = 0;
  std::uint64_t pages_trimmed = 0;
  std::uint64_t gc_cycles = 0;
  std::uint64_t gc_pages_copied = 0;
  std::uint64_t zones_reclaimed = 0;
  // GC bytes that crossed the host bus (0 when simple copy is in use).
  std::uint64_t gc_host_bus_bytes = 0;
  std::uint64_t forced_gc_stalls = 0;
};

class HostFtlBlockDevice final : public BlockDevice {
 public:
  // `device` must outlive this object. The host FTL takes over the whole device.
  HostFtlBlockDevice(ZnsDevice* device, const HostFtlConfig& config);
  ~HostFtlBlockDevice() override;  // Publishes final metrics and unhooks if attached.

  Result<SimTime> ReadBlocks(Lba lba, std::uint32_t count, SimTime issue,
                             std::span<std::uint8_t> out = {}) override;
  Result<SimTime> WriteBlocks(Lba lba, std::uint32_t count, SimTime issue,
                              std::span<const std::uint8_t> data = {}) override;
  Result<SimTime> TrimBlocks(Lba lba, std::uint32_t count, SimTime issue) override;
  std::uint64_t num_blocks() const override { return logical_pages_; }
  std::uint32_t block_size() const override { return device_->page_size(); }

  const HostFtlStats& stats() const { return stats_; }
  const GcScheduler& scheduler() const { return scheduler_; }

  // Registers HostFtlStats, scheduler tallies (`<prefix>.sched.*`) and space/DRAM gauges with
  // `telemetry`, plus per-op tracing spans (`<prefix>.read` / `<prefix>.write`) around host
  // I/O. Does NOT attach the underlying ZnsDevice — callers that own it attach it themselves
  // (with its own prefix) so shared-device setups stay unambiguous.
  //
  // While attached, reclamation decisions are logged as events: kGcVictim when a victim zone
  // is chosen, kGcCycle when it is fully drained and reset, and edge-triggered kGcWindow
  // records from the scheduler under "<prefix>.sched". Each incremental relocation step
  // becomes a "gc_step" maintenance slice on the "<prefix>.gc" timeline track, and
  // "<prefix>.free_fraction" / "<prefix>.write_amplification" are sampled as timeline series.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "hostftl");

  // Opportunistic maintenance hook: the I/O driver calls this between requests (e.g. on idle
  // ticks). Runs at most `max_cycles` GC cycles if the configured policy allows it. Returns
  // cycles run.
  std::uint32_t Pump(SimTime now, bool reads_pending, std::uint32_t max_cycles = 1);

  // Free zones available for new data.
  std::uint64_t FreeZones() const { return free_zones_.size(); }
  double FreeFraction() const;

  // End-to-end write amplification: physical flash programs / host logical writes.
  double EndToEndWriteAmplification() const;

  // Host DRAM consumed by the mapping tables (the cost the paper says moves from device to
  // host, §2.3).
  std::uint64_t HostMappingBytes() const;

  // Validates mapping invariants. For tests; O(capacity).
  Status CheckConsistency() const;

 private:
  static constexpr std::uint64_t kUnmapped = ~0ULL;

  // Ensures the host or relocation frontier has at least one writable page.
  Status EnsureFrontier(bool relocation, SimTime now);
  // Appends one logical page; returns device completion.
  Result<SimTime> AppendPage(std::uint64_t lpn, SimTime issue,
                             std::span<const std::uint8_t> data);
  // One incremental reclamation step (up to max_pages relocated); finalizes the victim (zone
  // reset) once drained. Returns completion time or error if nothing is reclaimable.
  Result<SimTime> GcStep(SimTime now, bool critical, std::uint32_t max_pages);
  Result<SimTime> GcRunToCompletion(SimTime now, bool critical);
  void InvalidatePage(std::uint64_t lpn, SimTime now);
  bool DevicePageLive(std::uint64_t dev_lba) const;
  std::uint32_t PickVictim(bool critical) const;
  void PublishMetrics();

  ZnsDevice* device_;
  HostFtlConfig config_;
  GcScheduler scheduler_;

  std::uint64_t logical_pages_ = 0;
  std::uint64_t zone_pages_ = 0;

  std::vector<std::uint64_t> l2p_;        // Logical page -> device LBA.
  std::vector<std::uint64_t> d2l_;        // Device LBA -> logical page.
  std::vector<std::uint32_t> zone_live_;  // Live pages per zone.
  std::vector<std::uint32_t> free_zones_;
  static constexpr std::uint32_t kNoZone = ~0U;
  std::uint32_t host_zone_ = kNoZone;   // Current zone receiving host writes.
  std::uint32_t reloc_zone_ = kNoZone;  // Current zone receiving GC copies.
  // Incremental-reclamation state: the victim being drained and the scan position within it.
  std::uint32_t gc_victim_ = kNoZone;
  std::uint64_t gc_offset_ = 0;
  // stats_.gc_pages_copied at victim selection (per-cycle copy count for the kGcCycle event).
  std::uint64_t gc_cycle_copied_base_ = 0;

  HostFtlStats stats_;
  Telemetry* telemetry_ = nullptr;
  std::string metric_prefix_;
  int sampler_group_ = -1;  // Timeline group for free-space / WA gauges.
  // Span kinds "<prefix>.write" / "<prefix>.read", interned at attach.
  Tracer::Kind* write_span_ = nullptr;
  Tracer::Kind* read_span_ = nullptr;
  // Logical bytes accepted from the host, accumulated into the provenance ledger's domain
  // "<prefix>" as a link in the factorized-WA chain.
  Bytes* provenance_ingress_ = nullptr;

  // State-digest audit of the host-side mapping ("<prefix>.l2p"): one entry per mapped
  // logical page hashing (lpn, device LBA). d2l_/zone_live_ are derived state.
  SubsystemDigest* audit_l2p_ = nullptr;
  static std::uint64_t L2pEntryHash(std::uint64_t lpn, std::uint64_t dev_lba) {
    return AuditHashWords({lpn, dev_lba});
  }
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_HOSTFTL_HOST_FTL_H_
