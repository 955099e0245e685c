// Emulated NAND flash device: the common substrate under both the conventional SSD and the ZNS
// SSD. It enforces the physical constraints the paper's argument rests on:
//
//   * pages within an erasure block must be programmed strictly in order;
//   * a block must be erased before any page in it can be reprogrammed;
//   * each erase consumes endurance; worn-out blocks go bad;
//   * planes and channel buses are independently busy resources, so operation latency depends
//     on contention (this is how garbage collection interferes with foreground I/O).
//
// All operations are timestamped: the caller supplies an issue time and receives a completion
// time. The device never blocks; "waiting" is expressed through returned times.

#ifndef BLOCKHEAD_SRC_FLASH_FLASH_DEVICE_H_
#define BLOCKHEAD_SRC_FLASH_FLASH_DEVICE_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/strong_id.h"
#include "src/flash/geometry.h"
#include "src/flash/timing.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

// Who initiated an operation. Internal ops (device GC, copyback, simple copy) do not cross the
// host bus; the split lets benchmarks measure host-interface traffic separately (E10).
enum class OpClass { kHost, kInternal };

struct FlashConfig {
  FlashGeometry geometry;
  FlashTiming timing;
  // If true, page payloads are stored (needed by the filesystem/KV correctness paths). If
  // false, reads return zeroes; timing and wear are still modeled (cheaper for big benches).
  bool store_data = true;
  // Probability that an erase causes early (pre-endurance-limit) block failure.
  double early_failure_prob = 0.0;
  std::uint64_t seed = 42;
};

struct FlashStats {
  std::uint64_t host_pages_read = 0;
  std::uint64_t host_pages_programmed = 0;
  std::uint64_t internal_pages_read = 0;
  std::uint64_t internal_pages_programmed = 0;
  std::uint64_t blocks_erased = 0;
  // Bytes that crossed the host interface (host-class reads + programs).
  std::uint64_t host_bus_bytes = 0;

  std::uint64_t total_pages_programmed() const {
    return host_pages_programmed + internal_pages_programmed;
  }
  std::uint64_t total_pages_read() const { return host_pages_read + internal_pages_read; }
};

struct WearSummary {
  std::uint32_t min_erase_count = 0;
  std::uint32_t max_erase_count = 0;
  double mean_erase_count = 0.0;
  double stddev_erase_count = 0.0;
  std::uint64_t bad_blocks = 0;
};

// Per-block externally visible state.
struct BlockStatus {
  std::uint32_t next_page = 0;  // Program write pointer within the block.
  std::uint32_t erase_count = 0;
  bool bad = false;
};

class FlashDevice {
 public:
  // Aborts, in every build type, if config.geometry.Validate() fails.
  explicit FlashDevice(const FlashConfig& config);
  ~FlashDevice();  // Publishes final metrics and unhooks from the registry if attached.

  FlashDevice(const FlashDevice&) = delete;
  FlashDevice& operator=(const FlashDevice&) = delete;

  const FlashGeometry& geometry() const { return config_.geometry; }
  const FlashTiming& timing() const { return config_.timing; }
  const FlashStats& stats() const { return stats_; }

  // Registers this device with `telemetry` under `<prefix>.*`: a pull-provider exporting
  // FlashStats, the WearSummary, and a write_amplification gauge, plus live host-op latency
  // histograms (`<prefix>.read.latency_ns`, `<prefix>.program.latency_ns`). While attached,
  // host operations also charge queue/GC-interference/service components to any open tracing
  // span (see src/telemetry/trace.h). Passing nullptr detaches.
  //
  // Timeline wiring (active only once telemetry->timeline.Enable() is called): internal copy
  // reads/programs and block erases become maintenance slices on per-plane tracks
  // ("<prefix>.plane<i>"), erases are logged as kBlockErase events, and per-plane /
  // per-channel busy fractions plus the running "<prefix>.wear.max_erase_count" are sampled
  // as timeline series on its cadence.
  //
  // Provenance wiring: the device registers itself with telemetry->provenance under `prefix`
  // and tallies every page program and block erase under the innermost open CauseScope (see
  // src/telemetry/provenance.h), so per-cause WA attribution needs no cooperation from
  // callers beyond opening scopes around their internally generated writes.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "flash");

  // Reads one page. If `out` is nonempty it must be page_size bytes and receives the payload
  // (zeroes when store_data is off or the page was never programmed).
  Result<SimTime> ReadPage(const PhysAddr& addr, SimTime issue, std::span<std::uint8_t> out = {},
                           OpClass op_class = OpClass::kHost);

  // Programs the next page of a block. addr.page must equal the block's write pointer.
  Result<SimTime> ProgramPage(const PhysAddr& addr, SimTime issue,
                              std::span<const std::uint8_t> data = {},
                              OpClass op_class = OpClass::kHost);

  // Erases a block, recycling it for programming. Consumes one endurance cycle; at the
  // endurance limit (or on early failure) the block is marked bad and kBlockBad is returned by
  // subsequent programs.
  Result<SimTime> EraseBlock(ChannelId channel, PlaneId plane, BlockId block, SimTime issue);

  // Device-internal page move (used by conventional-FTL GC and by the ZNS simple-copy
  // command): reads src and programs dst without touching the host bus. One call with the
  // same results, errors and side effects as ReadPage(src, kInternal) followed by
  // ProgramPage(dst, kInternal) issued at the read's completion.
  Result<SimTime> CopyPage(const PhysAddr& src, const PhysAddr& dst, SimTime issue);

  // Earliest time at which a new operation on this plane could start.
  SimTime PlaneBusyUntil(ChannelId channel, PlaneId plane) const;

  BlockStatus block_status(ChannelId channel, PlaneId plane, BlockId block) const;

  WearSummary ComputeWear() const;

 private:
  struct BlockState {
    std::uint32_t next_page = 0;
    std::uint32_t erase_count = 0;
    bool bad = false;
    std::vector<std::uint8_t> data;  // Lazily allocated when store_data is on.
  };

  // The error a read (or erase) / a program of `addr` fails with before any side effect, or
  // kOk: out of range, then a bad block, then (programs) the write-pointer order.
  ErrorCode ReadError(const PhysAddr& addr) const;
  ErrorCode ProgramError(const PhysAddr& addr) const;
  // The Status an op returns for a failed check; out-of-range addresses carry a message.
  static Status Failure(ErrorCode code);
  BlockState& BlockAt(const PhysAddr& addr);
  const BlockState& BlockAt(const PhysAddr& addr) const;

  // The halves of a checked read / program. Host* and Internal* book the plane (and, for host
  // ops, the channel bus), count the op and report it to telemetry; each returns completion.
  SimTime HostRead(const PhysAddr& addr, SimTime issue);
  SimTime InternalRead(const PhysAddr& addr, SimTime issue);
  SimTime HostProgram(const PhysAddr& addr, SimTime issue);
  SimTime InternalProgram(const PhysAddr& addr, SimTime issue);
  // Fills `out` (if nonempty) with the page's payload, or zeroes.
  void ReadPayload(const PhysAddr& addr, std::span<std::uint8_t> out) const;
  // Records the program's provenance, stores its payload and advances the write pointer.
  void CommitProgram(const PhysAddr& addr, std::span<const std::uint8_t> data, bool host,
                     SimTime done);

  // Last maintenance op on a plane: completion time plus the provenance identity of whoever
  // caused it, so a host op stalled behind it can name its interferer (reqpath).
  struct MaintMark {
    SimTime done = 0;
    WriteCause cause = WriteCause::kDeviceGC;
    StackLayer layer = StackLayer::kFlash;
  };

  // Marks [.., done] on a plane as maintenance work (internal copies, erases); host-op waits
  // that overlap it are attributed to GC interference. Captures the innermost open
  // CauseScope as the interferer identity.
  void NoteMaintenance(std::uint32_t plane_index, SimTime done);
  // Portion of a host op's wait [issue, start) spent behind maintenance work on the plane.
  SimTime MaintenanceOverlap(std::uint32_t plane_index, SimTime issue, SimTime start) const;
  // One interval of a host op's wall-to-wall split of [issue, done): a device-queue wait, a
  // GC stall behind maintenance, or the op's own flash busy time.
  struct HostInterval {
    SimTime begin;
    SimTime end;
    PathSegment segment;  // kDeviceQueue, kGcStall or kFlashBusy.
  };
  using HostSplit = std::array<HostInterval, 5>;
  // Charges a host op's split, given in time order and tiling [issue, done) exactly:
  // per-segment sums to the tracer's open spans and, inside a request, each interval to the
  // request-path ledger (the GC stall as interference from the plane's last maintenance op,
  // and only when non-empty).
  void ChargeHostSplit(std::uint32_t plane_index, const HostSplit& split);
  void PublishMetrics();

  FlashConfig config_;
  std::vector<BlockState> blocks_;     // Indexed by FlatBlockIndex.
  std::vector<SimTime> plane_busy_;    // Indexed by PlaneIndex.
  std::vector<SimTime> channel_busy_;  // Indexed by channel.
  // Last maintenance op per plane (GC-interference attribution + interferer identity).
  std::vector<MaintMark> plane_maintenance_busy_;
  // Busy intervals (host + maintenance), settled at sample boundaries so the timeline's
  // kRate samplers report true 0..1 busy fractions even though ops book their whole service
  // interval at issue time. Booked only while the timeline is enabled.
  std::vector<BusySeries> plane_busy_series_;
  std::vector<BusySeries> channel_busy_series_;
  FlashStats stats_;
  Rng rng_;
  std::vector<std::uint8_t> copy_buffer_;  // One page, for CopyPage payloads (store_data only).

  Telemetry* telemetry_ = nullptr;
  std::string metric_prefix_;
  // Write-provenance recording: every program/erase is tallied under the innermost open
  // CauseScope. The ledger pointer is cached at attach so the hot path does no map lookup.
  WriteProvenance* provenance_ = nullptr;
  WriteProvenance::DeviceLedger* ledger_ = nullptr;
  // Request-path charging: host ops attribute their queue/GC/media intervals to the active
  // request's exclusive segments. Cached at attach like the provenance ledger.
  RequestPathLedger* reqpath_ = nullptr;
  // State-digest audit of block states ("<prefix>.blocks"): one entry per erasure block
  // hashing (flat index, write pointer, erase count, bad flag). Registered at attach; every
  // program/erase folds the block's old entry out and the new one in (O(1), see
  // src/telemetry/audit/state_digest.h).
  SubsystemDigest* audit_blocks_ = nullptr;
  std::uint64_t BlockEntryHash(std::uint64_t flat_index, const BlockState& b) const {
    return AuditHashWords({flat_index, b.next_page, b.erase_count, b.bad ? 1u : 0u});
  }
  std::uint32_t max_erase_count_ = 0;  // Running max, sampled as a timeline counter track.
  int sampler_group_ = -1;
  std::vector<std::string> plane_tracks_;  // Precomputed "<prefix>.plane<i>" track names.
  Histogram* read_latency_ = nullptr;      // Host reads, issue -> completion.
  Histogram* program_latency_ = nullptr;   // Host programs, issue -> completion.
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_FLASH_FLASH_DEVICE_H_
