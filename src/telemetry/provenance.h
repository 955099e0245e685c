// Write-provenance ledger: attributes every flash page program and block erase to the
// subsystem that caused it.
//
// The paper's quantitative argument (§2.2) is about *where* write amplification comes from —
// device GC under low overprovisioning, dm-zoned-style block emulation doubling writes, LSM
// compaction multiplying with device WA. A single `write_amplification` gauge per layer cannot
// attribute a physical write to its cause. This ledger can: layers bracket their internally
// generated writes in an RAII CauseScope carrying a (WriteCause, StackLayer) pair, the flash
// device records every program/erase under the innermost open scope (default: a host write),
// and the ledger accumulates a per-device (cause × layer) matrix plus per-domain logical byte
// counters. From that one source of truth it derives:
//
//   * per-cause program/erase counters (published as provenance.<device>.programs.<cause>);
//   * a factorized WA report — app-WA × FS-WA × device-WA as a telescoping chain of
//     bytes-in ratios whose product equals the end-to-end WA by construction (Factorize);
//   * an endurance projection — given the device's P/E budget and the observed erase churn
//     over simulated time, days until the mean block reaches the budget (ProjectEndurance);
//   * a deterministic text dump (Dump) — same seed → byte-identical ledger.
//
// Scopes nest; the innermost wins. E.g. an LSM compaction (kLsmCompaction pushed by the KV
// layer) that triggers zonefile GC (kZoneCompaction pushed by the filesystem) attributes the
// relocation writes to kZoneCompaction — the proximate cause — while compaction's own data
// writes stay kLsmCompaction. The simulation is single-threaded, so the scope stack needs no
// synchronization and stays deterministic.

#ifndef BLOCKHEAD_SRC_TELEMETRY_PROVENANCE_H_
#define BLOCKHEAD_SRC_TELEMETRY_PROVENANCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/strong_id.h"
#include "src/telemetry/metric_registry.h"
#include "src/util/types.h"

namespace blockhead {

// Why a physical flash write happened. kHostWrite is the default when no scope is open: the
// write is foreground work the application asked for.
enum class WriteCause : std::uint8_t {
  kHostWrite = 0,            // Foreground data the host submitted.
  kDeviceGC,                 // Conventional-FTL garbage-collection relocation.
  kWearMigration,            // Wear-leveling migration of cold data.
  kBlockEmulationReclaim,    // Host-FTL (dm-zoned-style) zone reclaim.
  kZoneCompaction,           // Zone filesystem GC/compaction.
  kLsmFlush,                 // LSM memtable flush.
  kLsmCompaction,            // LSM level compaction.
  kCacheEviction,            // Flash-cache segment/zone recycling.
  kPadding,                  // Tail-page padding to reach a program unit.
  kFleetMigration,           // Fleet rebalancer shard copy (wear-aware migration).
};
inline constexpr int kWriteCauseCount = 10;

// Which layer of the stack opened the scope (the cause's originating layer).
enum class StackLayer : std::uint8_t {
  kHost = 0,  // No scope open: the write entered from the top.
  kKv,
  kCache,
  kZoneFs,
  kHostFtl,
  kFtl,
  kZns,
  kFlash,
  kFleet,  // Multi-device serving layer above the per-device stacks.
};
inline constexpr int kStackLayerCount = 9;

// Stable lowercase identifiers ("host_write", "device_gc", ...; "host", "kv", ...), used in
// metric names and ledger dumps.
const char* WriteCauseName(WriteCause cause);
const char* StackLayerName(StackLayer layer);

class WriteProvenance {
 public:
  // Per-device tallies, keyed by the flash device's metric prefix. The matrix rows/columns are
  // indexed by WriteCause / StackLayer enum values.
  struct DeviceLedger {
    std::uint64_t total_blocks = 0;
    std::uint64_t endurance_cycles = 0;  // P/E budget per block.
    Bytes page_size{0};
    std::uint64_t host_pages = 0;    // Host-class programs (the device's logical ingress).
    std::uint64_t total_pages = 0;   // All programs (host + internal).
    std::uint64_t total_erases = 0;
    SimTime last_time = 0;           // Latest completion time seen (churn-rate denominator).
    std::uint64_t programs[kWriteCauseCount][kStackLayerCount] = {};
    std::uint64_t erases[kWriteCauseCount][kStackLayerCount] = {};
  };

  // RAII cause scope. Layers open one around internally generated writes; nullptr provenance
  // (telemetry off) makes it a no-op. Non-copyable, non-movable: open at block scope.
  class CauseScope {
   public:
    CauseScope(WriteProvenance* provenance, WriteCause cause, StackLayer layer)
        : provenance_(provenance) {
      if (provenance_ != nullptr) {
        provenance_->stack_.push_back({cause, layer});
      }
    }
    ~CauseScope() {
      if (provenance_ != nullptr) {
        provenance_->stack_.pop_back();
      }
    }
    CauseScope(const CauseScope&) = delete;
    CauseScope& operator=(const CauseScope&) = delete;

   private:
    WriteProvenance* provenance_;
  };

  WriteProvenance() = default;
  WriteProvenance(const WriteProvenance&) = delete;
  WriteProvenance& operator=(const WriteProvenance&) = delete;

  // Registers (or re-registers: counts persist, geometry is refreshed) a flash device. The
  // returned ledger pointer stays valid for this object's lifetime — the device caches it and
  // records through it without a map lookup per operation.
  DeviceLedger* RegisterDevice(std::string_view device, std::uint64_t total_blocks,
                               std::uint64_t endurance_cycles, Bytes page_size);

  // Registers (or finds) a logical ingress domain for the factorized-WA chain and returns its
  // bytes-in accumulator (checked Bytes arithmetic); stays valid for this object's lifetime.
  Bytes* RegisterDomain(std::string_view domain);

  // Hot-path recording (called by the flash device on every program / erase).
  void RecordProgram(DeviceLedger* ledger, bool host_op, SimTime now) {
    const auto [cause, layer] = Current();
    ledger->programs[static_cast<int>(cause)][static_cast<int>(layer)]++;
    ledger->total_pages++;
    if (host_op) {
      ledger->host_pages++;
    }
    if (now > ledger->last_time) {
      ledger->last_time = now;
    }
  }
  void RecordErase(DeviceLedger* ledger, SimTime now) {
    const auto [cause, layer] = Current();
    ledger->erases[static_cast<int>(cause)][static_cast<int>(layer)]++;
    ledger->total_erases++;
    if (now > ledger->last_time) {
      ledger->last_time = now;
    }
  }

  // Innermost open scope; (kHostWrite, kHost) when none is open.
  WriteCause current_cause() const {
    return stack_.empty() ? WriteCause::kHostWrite : stack_.back().cause;
  }
  StackLayer current_layer() const {
    return stack_.empty() ? StackLayer::kHost : stack_.back().layer;
  }
  std::size_t open_scopes() const { return stack_.size(); }

  // Lookups (nullptr / 0 when unknown).
  const DeviceLedger* FindDevice(std::string_view device) const;
  Bytes DomainBytes(std::string_view domain) const;

  // Per-cause sums over layers (for tests and tables).
  static std::uint64_t ProgramCount(const DeviceLedger& ledger, WriteCause cause);
  static std::uint64_t EraseCount(const DeviceLedger& ledger, WriteCause cause);

  // One link of the factorized-WA chain: bytes entering `to` per byte entering `from`.
  struct WaFactor {
    std::string from;
    std::string to;
    double factor = 1.0;
  };
  struct FactorizedWa {
    std::vector<WaFactor> factors;
    double product = 1.0;     // Product of the factors.
    double end_to_end = 1.0;  // Physical bytes / first-domain bytes, computed directly.
  };

  // Builds the telescoping WA chain: domains[0] → domains[1] → ... → <device host bytes> →
  // <device physical bytes>. With every denominator nonzero the product equals end_to_end up
  // to floating-point rounding (each factor cancels the previous numerator); a zero
  // denominator yields factor 1.0. An empty `domains` reports device WA alone.
  FactorizedWa Factorize(const std::vector<std::string>& domains,
                         std::string_view device) const;

  struct EnduranceProjection {
    bool valid = false;  // False when no erases or no simulated time have been observed.
    double pe_budget = 0.0;
    double mean_erase_count = 0.0;          // total_erases / total_blocks.
    double erases_per_block_per_day = 0.0;  // Observed churn over simulated time.
    double projected_days = 0.0;            // Days until the mean block exhausts the budget.
  };

  // Projects days-to-wearout from the observed churn: (budget − mean) / rate. The paper's
  // OP-vs-lifetime trade-off in one number per configuration.
  EnduranceProjection ProjectEndurance(std::string_view device) const;

  // Publishes counters/gauges into `registry` under "provenance.*": per-device
  // programs/erases totals, nonzero per-cause counts, endurance projection, and per-domain
  // bytes_in. Registered as a snapshot provider by the Telemetry bundle.
  void PublishTo(MetricRegistry* registry) const;

  // Deterministic text serialization of the full ledger (devices sorted by name, cells in
  // enum order, nonzero cells only). Same seed → byte-identical.
  std::string Dump() const;

 private:
  struct OpenCause {
    WriteCause cause;
    StackLayer layer;
  };
  struct Current_ {
    WriteCause cause;
    StackLayer layer;
  };
  Current_ Current() const {
    if (stack_.empty()) {
      return {WriteCause::kHostWrite, StackLayer::kHost};
    }
    return {stack_.back().cause, stack_.back().layer};
  }

  std::vector<OpenCause> stack_;
  std::map<std::string, DeviceLedger, std::less<>> devices_;
  std::map<std::string, Bytes, std::less<>> domains_;
};

// Publishes a factorized-WA report as gauges: <prefix>.wa.factor<i> per chain link plus
// <prefix>.wa.product and <prefix>.wa.end_to_end.
void PublishFactorizedWa(MetricRegistry* registry, std::string_view prefix,
                         const WriteProvenance::FactorizedWa& wa);

// Formats the factorized chain as one human-readable line ("app→fs 1.20 × fs→dev 1.10 ...").
std::string FormatFactorizedWa(const WriteProvenance::FactorizedWa& wa);

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_PROVENANCE_H_
