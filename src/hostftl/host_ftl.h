// Host-side block device emulated over a ZNS SSD (the dm-zoned role from §2.3/§2.5: "it was
// straightforward to implement the block interface on the host using ZNS SSDs").
//
// A log-structured host FTL: logical pages are appended to an open "host" zone; overwrites
// invalidate the old location; the shared ZoneReclaimer (src/sched) picks the least-live zone
// and this layer copies its live pages to a separate relocation zone before the reset. The
// pieces a conventional SSD hides in firmware are all visible and tunable here:
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
#include "src/ftl/page_map.h"
#include "src/sched/gc_scheduler.h"
#include "src/sched/zone_reclaimer.h"
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
  // Opportunistic reclamation only touches zones at most this live (copying nearly-live zones
  // costs more than it reclaims). Critical reclamation ignores it.
  static constexpr double kGcMaxLiveFraction = 0.90;
  // Pages relocated per Pump step: reclamation trickles alongside foreground I/O instead of
  // copying a whole zone in one burst.
  static constexpr std::uint32_t kGcStepPages = 32;

  // `device` must outlive this object. The host FTL takes over the whole device.
  HostFtlBlockDevice(ZnsDevice* device, const HostFtlConfig& config);
  ~HostFtlBlockDevice() override;  // Publishes final metrics and unhooks if attached.

  Result<SimTime> ReadBlocks(Lba lba, std::uint32_t count, SimTime issue,
                             std::span<std::uint8_t> out = {}) override;
  Result<SimTime> WriteBlocks(Lba lba, std::uint32_t count, SimTime issue,
                              std::span<const std::uint8_t> data = {}) override;
  Result<SimTime> TrimBlocks(Lba lba, std::uint32_t count, SimTime issue) override;
  std::uint64_t num_blocks() const override { return map_.logical_pages(); }
  std::uint32_t block_size() const override { return device_->page_size(); }

  const HostFtlStats& stats() const { return stats_; }
  const GcScheduler& scheduler() const { return reclaimer_.scheduler(); }

  // Registers HostFtlStats, scheduler tallies (`<prefix>.sched.*`) and space/DRAM gauges with
  // `telemetry`, plus per-op tracing spans (`<prefix>.read` / `<prefix>.write`) around host
  // I/O. Does NOT attach the underlying ZnsDevice — callers that own it attach it themselves
  // (with its own prefix) so shared-device setups stay unambiguous.
  //
  // While attached, reclamation logs the ZoneReclaimer's events (kGcVictim, kGcCycle, and
  // kGcWindow under "<prefix>.sched") and "gc_step" slices on the "<prefix>.gc" track, and
  // "<prefix>.free_fraction" / "<prefix>.write_amplification" are sampled as timeline series.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "hostftl");

  // Opportunistic maintenance hook: the I/O driver calls this between requests (e.g. on idle
  // ticks). Runs at most `max_cycles` GC cycles if the configured policy allows it. Returns
  // cycles run.
  std::uint32_t Pump(SimTime now, bool reads_pending, std::uint32_t max_cycles = 1);

  // Free zones available for new data.
  std::uint64_t FreeZones() const { return reclaimer_.FreeZones(); }
  double FreeFraction() const { return reclaimer_.FreeFraction(); }

  // End-to-end write amplification: physical flash programs / host logical writes.
  double EndToEndWriteAmplification() const;

  // Host DRAM consumed by the mapping tables (the cost the paper says moves from device to
  // host, §2.3): the PageMap's forward and reverse tables.
  std::uint64_t HostMappingBytes() const;
  // The page-mapping table (logical page -> device LBA).
  const PageMap& page_map() const { return map_; }

  // Validates mapping invariants. For tests; O(capacity).
  Status CheckConsistency() const;

 private:
  // Ensures the host or relocation frontier has at least one writable page.
  Status EnsureFrontier(bool relocation, SimTime now);
  // Appends one logical page; returns device completion.
  Result<SimTime> AppendPage(std::uint64_t lpn, SimTime issue,
                             std::span<const std::uint8_t> data);
  // The reclaimer's step function: relocates up to max_pages live pages of the pending (or a
  // new) victim and resets it once drained. Errors if nothing is reclaimable.
  Result<SimTime> GcStep(SimTime now, bool critical, std::uint32_t max_pages);
  void InvalidatePage(std::uint64_t lpn, SimTime now);
  void PublishMetrics();

  ZnsDevice* device_;
  HostFtlConfig config_;
  ZoneReclaimer reclaimer_;

  std::uint64_t zone_pages_ = 0;

  PageMap map_;  // Logical page -> device LBA; audited as "<prefix>.l2p".
  static constexpr std::uint32_t kNoZone = ZoneReclaimer::kNoZone;
  std::uint32_t host_zone_ = kNoZone;   // Current zone receiving host writes.
  std::uint32_t reloc_zone_ = kNoZone;  // Current zone receiving GC copies.
  // Scan position within the pending victim (0 whenever none is pending).
  std::uint64_t gc_offset_ = 0;

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
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_HOSTFTL_HOST_FTL_H_
