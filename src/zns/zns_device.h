// Zoned Namespaces SSD model (NVMe TP 4053 semantics subset, plus zone append and the TP 4065a
// simple-copy command the paper highlights in §2.3/§4.2).
//
// The device is built on the same FlashDevice substrate as the conventional SSD, but its FTL is
// thin: it maps zones to stripes of erasure blocks (one zone -> one block on every plane of its
// group, giving full write parallelism within a zone) and does *no* garbage collection. All the
// conventional FTL's DRAM-hungry page-granularity state disappears; what remains is a 4-byte
// per-erasure-block zone map — the source of the paper's ~256 KB-per-TB figure (§2.2).
//
// Zone state machine (§2.1): Empty -> ImplicitOpen/ExplicitOpen -> Closed -> Full -> (reset) ->
// Empty, with ReadOnly and Offline as failure states. Open and active zone counts are limited
// (the paper's example device: 14); exceeding them fails with the matching NVMe status.
//
// Multi-writer semantics (§4.2): regular zone writes must be issued at the write pointer, so
// concurrent writers serialize — each must observe the previous write's completion before it
// can issue. Zone append carries no offset; the device serializes appends internally and
// returns the assigned address, so appends from many writers pipeline across planes.

#ifndef BLOCKHEAD_SRC_ZNS_ZNS_DEVICE_H_
#define BLOCKHEAD_SRC_ZNS_ZNS_DEVICE_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "src/core/strong_id.h"
#include "src/flash/flash_device.h"
#include "src/ftl/conventional_ssd.h"  // For DramUsage.
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

enum class ZoneState {
  kEmpty,
  kImplicitOpen,
  kExplicitOpen,
  kClosed,
  kFull,
  kReadOnly,
  kOffline,
};

const char* ZoneStateName(ZoneState state);

struct ZnsConfig {
  // Planes a single zone stripes across (0 = all planes); each contributes one erasure block.
  // Real devices map zones to a small die group, so one zone cannot saturate the device —
  // which is why the active-zone budget is a meaningful resource (§4.2). Must divide the total
  // plane count.
  std::uint32_t planes_per_zone = 0;
  // Resource limits (paper §2.1: "only a limited number of zones can be active at once").
  std::uint32_t max_active_zones = 14;
  std::uint32_t max_open_zones = 14;
  // Per-active-zone device write buffer (pages); the DRAM that makes active zones a scarce
  // resource (§2.1). Writes/appends are acknowledged once buffered; the buffer drains at
  // cell-program speed. 0 disables buffering (commands complete only when cells are
  // programmed — the strictest host-serialization regime).
  std::uint32_t zone_write_buffer_pages = 16;

  // kInvalidArgument if the zone layout does not fit `geometry`: a width that does not divide
  // the plane count would leave planes unused, and one wider than the device gives no zones.
  Status Validate(const FlashGeometry& geometry) const {
    if (planes_per_zone != 0 && geometry.total_planes() % planes_per_zone != 0) {
      return Status(ErrorCode::kInvalidArgument, "planes_per_zone must divide the plane count");
    }
    return Status::Ok();
  }
};

struct ZoneDescriptor {
  ZoneId zone_id{0};
  ZoneState state = ZoneState::kEmpty;
  Lba start_lba{0};                  // First LBA of the zone.
  std::uint64_t capacity_pages = 0;  // Writable capacity (shrinks if blocks go bad).
  std::uint64_t write_pointer = 0;   // Zone-relative, in pages.
};

struct ZnsStats {
  std::uint64_t pages_written = 0;   // Via Write.
  std::uint64_t pages_appended = 0;  // Via Append.
  std::uint64_t pages_read = 0;
  std::uint64_t pages_copied = 0;  // Via SimpleCopy.
  std::uint64_t zone_resets = 0;
  std::uint64_t zone_finishes = 0;
  std::uint64_t wp_mismatch_errors = 0;
  std::uint64_t active_limit_rejections = 0;
};

struct AppendResult {
  SimTime completion = 0;
  Lba assigned_lba{0};  // Device-assigned absolute LBA of the first page.
};

// A source range for SimpleCopy.
struct CopyRange {
  Lba lba{0};
  std::uint32_t pages = 0;
};

class ZnsDevice {
 public:
  // Host-side cost of write-pointer serialization per regular zone write (lock handoff +
  // completion processing before the next writer may form its command). Not paid by Append.
  static constexpr SimTime kWpSyncOverhead = 5 * kMicrosecond;

  // Aborts, in every build type, if zns_config.Validate(flash_config.geometry) fails.
  ZnsDevice(const FlashConfig& flash_config, const ZnsConfig& zns_config);
  ~ZnsDevice();  // Publishes final metrics and unhooks from the registry if attached.

  const FlashDevice& flash() const { return flash_; }
  const ZnsStats& stats() const { return stats_; }
  const ZnsConfig& config() const { return config_; }

  // Registers this device (and its inner flash, under `<prefix>.flash.*`) with `telemetry`:
  // ZnsStats and zone-resource gauges under `<prefix>.*`, plus live host-observed latency
  // histograms `<prefix>.append.latency_ns`, `<prefix>.write.latency_ns` and
  // `<prefix>.read.latency_ns`.
  //
  // While attached, every zone state-machine edge (EMPTY -> OPEN -> FULL -> reset, plus
  // close/finish/offline) is logged as a kZoneTransition event, completed resets additionally
  // as kZoneReset events and "zone_reset" maintenance slices on the "<prefix>.reset" timeline
  // track; "<prefix>.active_zones" / "<prefix>.open_zones" are sampled as timeline series.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "zns");

  // The attached telemetry bundle (nullptr when detached). Lets host-side layers built on top
  // of the device (persistent queue, host FTL) share the same registry/ledger.
  Telemetry* telemetry() const { return telemetry_; }

  std::uint32_t num_zones() const { return static_cast<std::uint32_t>(zones_.size()); }
  // Uniform nominal zone size in pages (LBA stride between zone starts).
  std::uint64_t zone_size_pages() const { return zone_size_pages_; }
  std::uint32_t page_size() const { return flash_.geometry().page_size; }
  std::uint64_t capacity_bytes() const;

  ZoneDescriptor zone(ZoneId zone_id) const;
  std::uint32_t active_zones() const { return active_count_; }
  std::uint32_t open_zones() const { return open_count_; }

  // Writes `pages` pages at `offset` (zone-relative, in pages), which must equal the write
  // pointer. Transitions Empty/Closed zones to ImplicitOpen. Concurrent writers to the same
  // zone serialize on the write pointer (see file comment).
  Result<SimTime> Write(ZoneId zone_id, std::uint64_t offset, std::uint32_t pages,
                        SimTime issue, std::span<const std::uint8_t> data = {});

  // Appends `pages` pages at the device-chosen position; does not serialize on the host side.
  Result<AppendResult> Append(ZoneId zone_id, std::uint32_t pages, SimTime issue,
                              std::span<const std::uint8_t> data = {});

  // Reads `pages` pages starting at absolute LBA. Reads beyond the write pointer return zeros.
  Result<SimTime> Read(Lba lba, std::uint32_t pages, SimTime issue,
                       std::span<std::uint8_t> out = {});

  // Explicitly opens a zone (consumes an open + active slot).
  Result<SimTime> OpenZone(ZoneId zone_id, SimTime issue);
  // Closes an open zone (frees the open slot; the zone stays active).
  Result<SimTime> CloseZone(ZoneId zone_id, SimTime issue);
  // Finishes a zone: write pointer jumps to capacity; frees its active slot.
  Result<SimTime> FinishZone(ZoneId zone_id, SimTime issue);
  // Resets a zone to Empty, erasing its blocks. Worn-out blocks are dropped from the zone
  // (capacity shrinks); a zone with no usable blocks left goes Offline.
  Result<SimTime> ResetZone(ZoneId zone_id, SimTime issue);

  // Device-controller-managed copy (NVMe simple copy): reads the source ranges and appends
  // them to dst_zone without any host-bus traffic. Sources must be below their zones' write
  // pointers.
  Result<SimTime> SimpleCopy(std::span<const CopyRange> sources, ZoneId dst_zone,
                             SimTime issue);

  // DRAM footprint under the paper's 4 B-per-erasure-block model plus active-zone buffers.
  DramUsage ComputeDramUsage() const;

  // Translates an absolute LBA to its zone. Fails if out of range.
  Result<ZoneId> ZoneOfLba(Lba lba) const;

 private:
  struct StripeUnit {
    ChannelId channel{0};
    PlaneId plane{0};
    BlockId block{0};
  };

  struct Zone {
    ZoneState state = ZoneState::kEmpty;
    std::uint64_t write_pointer = 0;     // Zone-relative pages.
    std::uint64_t programmed_pages = 0;  // Prefix actually programmed (wp jumps on Finish).
    std::uint64_t capacity_pages = 0;    // units.size() * pages_per_block.
    std::vector<StripeUnit> units;     // Usable blocks, striped round-robin by page.
    // Acknowledgement of the last regular Write plus sync overhead; the next Write cannot be
    // *issued* before this (host-side write-pointer serialization).
    SimTime write_serial_point = 0;
    // Outstanding buffered program completions (device write buffer occupancy model).
    std::deque<SimTime> inflight;
  };

  // Maps a zone-relative page offset to its physical address.
  PhysAddr AddrOf(const Zone& z, std::uint64_t offset) const;
  // Common path for Write/Append/SimpleCopy payload programming.
  Result<SimTime> ProgramAtWp(Zone& z, std::uint32_t pages, SimTime issue,
                              std::span<const std::uint8_t> data, OpClass op_class);
  // Transitions a zone toward (implicit) open for writing; enforces resource limits. `now` is
  // the SimTime any state transition is logged at.
  Status EnsureWritable(Zone& z, bool explicit_open, SimTime now);
  void ReleaseActive(Zone& z);
  // Logs a kZoneTransition event (no-op when telemetry is off or from == to).
  void NoteZoneTransition(const Zone& z, ZoneState from, ZoneState to, SimTime t);
  // Host-visible acknowledgement time for `pages` buffered at data_in whose programs finish
  // at program_done.
  SimTime BufferAck(Zone& z, std::uint32_t pages, SimTime data_in, SimTime program_done);
  void PublishMetrics();

  FlashDevice flash_;
  ZnsConfig config_;
  std::vector<Zone> zones_;
  std::uint64_t zone_size_pages_ = 0;
  std::uint32_t active_count_ = 0;
  std::uint32_t open_count_ = 0;
  ZnsStats stats_;

  Telemetry* telemetry_ = nullptr;
  std::string metric_prefix_;
  Histogram* append_latency_ = nullptr;
  Histogram* write_latency_ = nullptr;
  Histogram* read_latency_ = nullptr;
  int sampler_group_ = -1;  // Timeline group for zone-resource gauges.

  // State-digest audit of the zone table ("<prefix>.zones"): one entry per zone hashing
  // (id, state, write pointer, programmed prefix, capacity). Every transition and every
  // write-pointer advance folds the zone's old entry out and the new one in.
  SubsystemDigest* audit_zones_ = nullptr;
  bool ZoneAuditArmed() const { return audit_zones_ != nullptr && audit_zones_->armed(); }
  std::uint64_t ZoneEntryHash(const Zone& z) const {
    return AuditHashWords({static_cast<std::uint64_t>(&z - zones_.data()),
                           static_cast<std::uint64_t>(z.state), z.write_pointer,
                           z.programmed_pages, z.capacity_pages});
  }
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_ZNS_ZNS_DEVICE_H_
