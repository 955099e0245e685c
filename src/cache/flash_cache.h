// Log-structured flash caches (CacheLib/RIPQ stand-ins for the paper's caching claims).
//
// §4.1 of the paper: "large-scale flash caching applications maintain several buckets of
// objects, where each bucket should be written to the same erasure block... Applications have
// evolved to use DRAM as a buffer to coalesce many writes into one very large write. With ZNS
// SSDs, these buffers are no longer necessary."
//
// Three designs are implemented behind one interface:
//   * BlockFlashCache (coalescing=true)  — conventional SSD, segment-sized DRAM buffer,
//     segments written as one large sequential burst, FIFO segment eviction (the design flash
//     caches evolved into);
//   * BlockFlashCache (coalescing=false) — conventional SSD, objects written individually in
//     page-granular slots (the naive design whose FTL-level write amplification motivated the
//     buffers in the first place);
//   * ZnsFlashCache — one segment per zone, objects appended directly, eviction = zone reset.
//     No host DRAM buffer; write amplification is structurally ~1.
//
// Objects are identified by integer keys; payloads are synthetic (the cache stores sizes and
// locations — index integrity, hit ratios, DRAM and WA are what the experiments measure).

#ifndef BLOCKHEAD_SRC_CACHE_FLASH_CACHE_H_
#define BLOCKHEAD_SRC_CACHE_FLASH_CACHE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/block/block_device.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/types.h"
#include "src/zns/zns_device.h"

namespace blockhead {

struct CacheStats {
  std::uint64_t puts = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evicted_objects = 0;
  std::uint64_t segments_recycled = 0;
  std::uint64_t bytes_admitted = 0;

  double HitRatio() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

struct CacheGetResult {
  bool hit = false;
  std::uint32_t size_bytes = 0;
  SimTime completion = 0;
};

class FlashCache {
 public:
  virtual ~FlashCache();

  // Inserts (or refreshes) an object of `size_bytes`. Evicts as needed.
  virtual Result<SimTime> Put(std::uint64_t key, std::uint32_t size_bytes, SimTime now) = 0;
  // Looks the object up; a hit charges the device read(s) for its pages.
  virtual Result<CacheGetResult> Get(std::uint64_t key, SimTime now) = 0;

  virtual const CacheStats& stats() const = 0;
  // Host DRAM consumed by write staging (excludes the index, which all designs share).
  virtual std::uint64_t StagingDramBytes() const = 0;

  // Registers CacheStats counters, hit-ratio/staging-DRAM gauges and a live
  // `<prefix>.get.latency_ns` histogram with `telemetry`. Shared by all cache designs; the
  // backing device is attached separately by its owner. While attached, bulk evictions
  // (segment recycles / zone resets) land in the event log as kCacheEvict records.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "cache");

 protected:
  // Derived Get implementations report hit completion latency here; no-op when detached.
  void RecordGetLatency(SimTime latency) {
    if (get_latency_ != nullptr) {
      get_latency_->Record(latency);
    }
  }

  // Provenance ledger for cause scopes around recycling writes; nullptr when detached.
  WriteProvenance* provenance() {
    return telemetry_ == nullptr ? nullptr : &telemetry_->provenance;
  }

  // Host-side self-profiler for wall-clock scopes; nullptr when detached.
  SelfProfiler* profiler() { return ProfilerOf(telemetry_); }

  // Derived Put implementations report admitted bytes here (the cache's logical ingress in
  // the factorized-WA chain); no-op when detached.
  void NoteIngressBytes(std::uint64_t bytes) {
    if (provenance_ingress_ != nullptr) {
      *provenance_ingress_ += Bytes{bytes};
    }
  }

  // Appends a kCacheEvict event for a bulk eviction (no-op when detached). `container` is the
  // recycled segment/zone id, `objects` the number of objects dropped with it.
  void NoteEviction(SimTime t, const std::string& detail, std::uint64_t container,
                    std::uint64_t objects);

  // State-digest audit handle for the object index ("<prefix>.index"); nullptr when detached.
  // Derived classes fold one entry per resident object (design-specific location hash).
  SubsystemDigest* audit_index() const { return audit_index_; }
  bool IndexAuditArmed() const { return audit_index_ != nullptr && audit_index_->armed(); }

 private:
  void PublishMetrics();

  Telemetry* telemetry_ = nullptr;
  std::string metric_prefix_;
  Histogram* get_latency_ = nullptr;
  Bytes* provenance_ingress_ = nullptr;  // Domain "<prefix>" bytes-in accumulator.
  SubsystemDigest* audit_index_ = nullptr;
};

struct BlockCacheConfig {
  std::uint32_t segment_pages = 64;
  bool coalesce_writes = true;  // false -> naive per-object placement.
  // Naive mode evicts a randomly sampled resident object (approximating the scattered death
  // order of LRU/priority caches — the FTL-hostile pattern §4.1 describes). Sampling seed:
  std::uint64_t seed = 17;
};

class BlockFlashCache final : public FlashCache {
 public:
  // `device` must outlive the cache; the cache takes over the whole LBA space.
  BlockFlashCache(BlockDevice* device, const BlockCacheConfig& config);

  Result<SimTime> Put(std::uint64_t key, std::uint32_t size_bytes, SimTime now) override;
  Result<CacheGetResult> Get(std::uint64_t key, SimTime now) override;
  const CacheStats& stats() const override { return stats_; }
  std::uint64_t StagingDramBytes() const override;

 private:
  struct Location {
    std::uint32_t segment = 0;
    std::uint64_t page = 0;  // Segment-relative start page (coalescing mode).
    std::uint32_t pages = 0;
    std::uint32_t size_bytes = 0;
    bool in_buffer = false;  // Coalescing mode: still staged in DRAM.
    std::vector<std::uint64_t> page_list;  // Naive mode: scattered absolute pages.
  };

  Result<SimTime> PutCoalescing(std::uint64_t key, std::uint32_t pages,
                                std::uint32_t size_bytes, SimTime now);
  Result<SimTime> PutNaive(std::uint64_t key, std::uint32_t pages, std::uint32_t size_bytes,
                           SimTime now);
  // Flushes the staged segment to the next FIFO segment slot.
  Result<SimTime> FlushSegment(SimTime now);
  void DropSegmentObjects(std::uint32_t segment, SimTime now);
  // Audit entry: key + full location, including the scattered page list in naive mode.
  static std::uint64_t EntryHash(std::uint64_t key, const Location& loc) {
    std::uint64_t h = AuditHashWords(
        {key, loc.segment, loc.page, loc.pages, loc.size_bytes, loc.in_buffer ? 1u : 0u});
    for (const std::uint64_t page : loc.page_list) {
      h = AuditHashWords({h, page});
    }
    return h;
  }

  BlockDevice* device_;
  BlockCacheConfig config_;
  std::uint32_t num_segments_ = 0;

  std::unordered_map<std::uint64_t, Location> index_;
  std::vector<std::vector<std::uint64_t>> segment_keys_;  // Keys per segment (coalescing mode).

  // Coalescing mode state.
  std::uint32_t open_segment_ = 0;       // Segment slot the staged buffer will land in.
  std::uint32_t staged_pages_ = 0;       // Pages accumulated in the DRAM buffer.
  std::vector<std::uint64_t> staged_keys_;

  // Naive mode state: resident-object sample pool + free page pool.
  std::vector<std::uint64_t> resident_;
  std::vector<std::uint64_t> free_pages_;
  Rng rng_;

  CacheStats stats_;
};

class ZnsFlashCache final : public FlashCache {
 public:
  explicit ZnsFlashCache(ZnsDevice* device);

  Result<SimTime> Put(std::uint64_t key, std::uint32_t size_bytes, SimTime now) override;
  Result<CacheGetResult> Get(std::uint64_t key, SimTime now) override;
  const CacheStats& stats() const override { return stats_; }
  std::uint64_t StagingDramBytes() const override { return 0; }  // The point of §4.1.

 private:
  struct Location {
    std::uint32_t zone = 0;
    std::uint64_t offset = 0;  // Zone-relative pages.
    std::uint32_t pages = 0;
    std::uint32_t size_bytes = 0;
  };

  Result<SimTime> EnsureOpenZone(std::uint32_t pages_needed, SimTime now);
  void DropZoneObjects(std::uint32_t zone_index, SimTime now);
  static std::uint64_t EntryHash(std::uint64_t key, const Location& loc) {
    return AuditHashWords({key, loc.zone, loc.offset, loc.pages, loc.size_bytes});
  }

  ZnsDevice* device_;
  std::unordered_map<std::uint64_t, Location> index_;
  std::vector<std::vector<std::uint64_t>> zone_keys_;
  std::deque<std::uint32_t> zone_fifo_;  // Filled zones, oldest first.
  std::uint32_t open_zone_ = kNoZone;
  std::vector<std::uint32_t> free_zones_;
  static constexpr std::uint32_t kNoZone = ~0U;

  CacheStats stats_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_CACHE_FLASH_CACHE_H_
