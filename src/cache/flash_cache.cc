#include "src/cache/flash_cache.h"

#include <algorithm>
#include <cassert>

namespace blockhead {

namespace {

std::uint32_t PagesFor(std::uint32_t size_bytes, std::uint32_t page_size) {
  return (size_bytes + page_size - 1) / page_size;
}

}  // namespace

// --- FlashCache (shared telemetry) ---

FlashCache::~FlashCache() {
  // No final PublishMetrics here: it reads through virtuals, and the derived object is
  // already gone by the time this base destructor runs. Just unhook the provider.
  if (telemetry_ != nullptr) {
    telemetry_->registry.RemoveProvider(metric_prefix_);
  }
}

void FlashCache::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_);
  }
  telemetry_ = telemetry;
  metric_prefix_ = std::string(prefix);
  if (telemetry_ == nullptr) {
    get_latency_ = nullptr;
    provenance_ingress_ = nullptr;
    audit_index_ = nullptr;
    return;
  }
  get_latency_ = telemetry_->registry.GetHistogram(metric_prefix_ + ".get.latency_ns");
  telemetry_->registry.AddProvider(metric_prefix_, [this] { PublishMetrics(); });
  provenance_ingress_ = telemetry_->provenance.RegisterDomain(metric_prefix_);
  audit_index_ = telemetry_->audit.Register(metric_prefix_ + ".index");
}

void FlashCache::NoteEviction(SimTime t, const std::string& detail, std::uint64_t container,
                              std::uint64_t objects) {
  if (telemetry_ == nullptr) {
    return;
  }
  telemetry_->events.Append(t, TimelineEventType::kCacheEvict, metric_prefix_, detail,
                            container, objects);
}

void FlashCache::PublishMetrics() {
  MetricRegistry& reg = telemetry_->registry;
  const std::string& p = metric_prefix_;
  const CacheStats& s = stats();
  reg.GetCounter(p + ".puts")->Set(s.puts);
  reg.GetCounter(p + ".hits")->Set(s.hits);
  reg.GetCounter(p + ".misses")->Set(s.misses);
  reg.GetCounter(p + ".evicted_objects")->Set(s.evicted_objects);
  reg.GetCounter(p + ".segments_recycled")->Set(s.segments_recycled);
  reg.GetCounter(p + ".bytes_admitted")->Set(s.bytes_admitted);
  reg.GetGauge(p + ".hit_ratio")->Set(s.HitRatio());
  reg.GetGauge(p + ".staging_dram_bytes")->Set(static_cast<double>(StagingDramBytes()));
}

// --- BlockFlashCache ---

BlockFlashCache::BlockFlashCache(BlockDevice* device, const BlockCacheConfig& config)
    : device_(device), config_(config), rng_(config.seed) {
  num_segments_ = static_cast<std::uint32_t>(device_->num_blocks() / config_.segment_pages);
  segment_keys_.resize(num_segments_);
  if (!config_.coalesce_writes) {
    const std::uint64_t pages = static_cast<std::uint64_t>(num_segments_) *
                                config_.segment_pages;
    free_pages_.reserve(pages);
    for (std::uint64_t p = pages; p > 0; --p) {
      free_pages_.push_back(p - 1);
    }
  }
}

std::uint64_t BlockFlashCache::StagingDramBytes() const {
  if (!config_.coalesce_writes) {
    return 0;
  }
  return static_cast<std::uint64_t>(config_.segment_pages) * device_->block_size();
}

void BlockFlashCache::DropSegmentObjects(std::uint32_t segment, SimTime now) {
  const bool audit = IndexAuditArmed();
  for (const std::uint64_t key : segment_keys_[segment]) {
    auto it = index_.find(key);
    if (it != index_.end() && it->second.segment == segment && !it->second.in_buffer) {
      if (audit) {
        audit_index()->Remove(now, EntryHash(key, it->second));
      }
      index_.erase(it);
      stats_.evicted_objects++;
    }
  }
  segment_keys_[segment].clear();
}

Result<SimTime> BlockFlashCache::FlushSegment(SimTime now) {
  SelfProfiler::Scope prof_scope(profiler(), ProfSubsystem::kCache, ProfOp::kFlush);
  // Recycle the slot: its previous generation of objects is evicted, then the staged buffer
  // lands as one large sequential write (the RIPQ pattern). The overwrite is the eviction
  // mechanism, so its programs (and the device GC they displace) are cache-recycling work.
  WriteProvenance::CauseScope cause(provenance(), WriteCause::kCacheEviction,
                                    StackLayer::kCache);
  const std::uint64_t evicted_before = stats_.evicted_objects;
  DropSegmentObjects(open_segment_, now);
  const std::uint64_t lba = static_cast<std::uint64_t>(open_segment_) * config_.segment_pages;
  Result<SimTime> written = device_->WriteBlocks(Lba{lba}, staged_pages_, now);
  if (!written.ok()) {
    return written;
  }
  const std::uint64_t dropped = stats_.evicted_objects - evicted_before;
  NoteEviction(written.value(),
               "recycle segment " + std::to_string(open_segment_) + " evicted " +
                   std::to_string(dropped),
               open_segment_, dropped);
  const bool audit = IndexAuditArmed();
  for (const std::uint64_t key : staged_keys_) {
    auto it = index_.find(key);
    if (it != index_.end() && it->second.segment == open_segment_ && it->second.in_buffer) {
      const std::uint64_t pre = audit ? EntryHash(key, it->second) : 0;
      it->second.in_buffer = false;
      if (audit) {
        audit_index()->Replace(written.value(), pre, EntryHash(key, it->second));
      }
    }
  }
  segment_keys_[open_segment_] = std::move(staged_keys_);
  staged_keys_.clear();
  staged_pages_ = 0;
  open_segment_ = (open_segment_ + 1) % num_segments_;
  stats_.segments_recycled++;
  return written;
}

Result<SimTime> BlockFlashCache::PutCoalescing(std::uint64_t key, std::uint32_t pages,
                                               std::uint32_t size_bytes, SimTime now) {
  if (pages > config_.segment_pages) {
    return ErrorCode::kInvalidArgument;
  }
  SimTime t = now;
  if (staged_pages_ + pages > config_.segment_pages) {
    Result<SimTime> flushed = FlushSegment(t);
    if (!flushed.ok()) {
      return flushed;
    }
    t = flushed.value();
  }
  Location loc;
  loc.segment = open_segment_;
  loc.page = staged_pages_;
  loc.pages = pages;
  loc.size_bytes = size_bytes;
  loc.in_buffer = true;
  if (IndexAuditArmed()) {
    audit_index()->Insert(t, EntryHash(key, loc));
  }
  index_[key] = loc;
  staged_keys_.push_back(key);
  staged_pages_ += pages;
  // The object is admitted the moment it is in DRAM; flash I/O happens at flush.
  return t;
}

Result<SimTime> BlockFlashCache::PutNaive(std::uint64_t key, std::uint32_t pages,
                                          std::uint32_t size_bytes, SimTime now) {
  SimTime t = now;
  // Make room: evict randomly sampled residents (priority/LRU caches kill objects in an
  // order uncorrelated with write order, which is what hurts the FTL).
  while (free_pages_.size() < pages) {
    if (resident_.empty()) {
      return ErrorCode::kDeviceFull;
    }
    const std::size_t pick = static_cast<std::size_t>(rng_.NextBelow(resident_.size()));
    const std::uint64_t victim = resident_[pick];
    resident_[pick] = resident_.back();
    resident_.pop_back();
    auto it = index_.find(victim);
    if (it == index_.end()) {
      continue;  // Already replaced by an overwrite.
    }
    for (const std::uint64_t page : it->second.page_list) {
      free_pages_.push_back(page);
      Result<SimTime> trimmed = device_->TrimBlocks(Lba{page}, 1, t);
      if (!trimmed.ok()) {
        return trimmed;
      }
    }
    if (IndexAuditArmed()) {
      audit_index()->Remove(t, EntryHash(victim, it->second));
    }
    index_.erase(it);
    stats_.evicted_objects++;
  }
  // Allocate scattered pages and write them individually: the small-write pattern the paper
  // says conventional-SSD caches had to engineer away.
  Location loc;
  loc.pages = pages;
  loc.size_bytes = size_bytes;
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::uint64_t page = free_pages_.back();
    free_pages_.pop_back();
    loc.page_list.push_back(page);
    Result<SimTime> written = device_->WriteBlocks(Lba{page}, 1, t);
    if (!written.ok()) {
      return written;
    }
    t = std::max(t, written.value());
  }
  if (IndexAuditArmed()) {
    audit_index()->Insert(t, EntryHash(key, loc));
  }
  index_[key] = std::move(loc);
  resident_.push_back(key);
  return t;
}

Result<SimTime> BlockFlashCache::Put(std::uint64_t key, std::uint32_t size_bytes, SimTime now) {
  SelfProfiler::Scope prof_scope(profiler(), ProfSubsystem::kCache, ProfOp::kWrite);
  stats_.puts++;
  stats_.bytes_admitted += size_bytes;
  NoteIngressBytes(size_bytes);
  const std::uint32_t pages = PagesFor(size_bytes, device_->block_size());
  // Overwrite: retire the old copy first.
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (!config_.coalesce_writes) {
      for (const std::uint64_t page : it->second.page_list) {
        free_pages_.push_back(page);
      }
      stats_.evicted_objects++;
    }
    if (IndexAuditArmed()) {
      audit_index()->Remove(now, EntryHash(key, it->second));
    }
    index_.erase(it);
  }
  if (config_.coalesce_writes) {
    return PutCoalescing(key, pages, size_bytes, now);
  }
  return PutNaive(key, pages, size_bytes, now);
}

Result<CacheGetResult> BlockFlashCache::Get(std::uint64_t key, SimTime now) {
  SelfProfiler::Scope prof_scope(profiler(), ProfSubsystem::kCache, ProfOp::kRead);
  CacheGetResult result;
  result.completion = now;
  auto it = index_.find(key);
  if (it == index_.end()) {
    stats_.misses++;
    return result;
  }
  stats_.hits++;
  result.hit = true;
  result.size_bytes = it->second.size_bytes;
  if (it->second.in_buffer) {
    RecordGetLatency(0);
    return result;  // Served from the DRAM staging buffer.
  }
  if (config_.coalesce_writes) {
    const std::uint64_t lba =
        static_cast<std::uint64_t>(it->second.segment) * config_.segment_pages +
        it->second.page;
    Result<SimTime> read = device_->ReadBlocks(Lba{lba}, it->second.pages, now);
    if (!read.ok()) {
      return read.status();
    }
    result.completion = read.value();
    RecordGetLatency(result.completion - now);
    return result;
  }
  for (const std::uint64_t page : it->second.page_list) {
    Result<SimTime> read = device_->ReadBlocks(Lba{page}, 1, now);
    if (!read.ok()) {
      return read.status();
    }
    result.completion = std::max(result.completion, read.value());
  }
  RecordGetLatency(result.completion - now);
  return result;
}

// --- ZnsFlashCache ---

ZnsFlashCache::ZnsFlashCache(ZnsDevice* device) : device_(device) {
  zone_keys_.resize(device_->num_zones());
  free_zones_.reserve(device_->num_zones());
  for (std::uint32_t z = device_->num_zones(); z > 0; --z) {
    free_zones_.push_back(z - 1);
  }
}

void ZnsFlashCache::DropZoneObjects(std::uint32_t zone_index, SimTime now) {
  const bool audit = IndexAuditArmed();
  for (const std::uint64_t key : zone_keys_[zone_index]) {
    auto it = index_.find(key);
    if (it != index_.end() && it->second.zone == zone_index) {
      if (audit) {
        audit_index()->Remove(now, EntryHash(key, it->second));
      }
      index_.erase(it);
      stats_.evicted_objects++;
    }
  }
  zone_keys_[zone_index].clear();
}

Result<SimTime> ZnsFlashCache::EnsureOpenZone(std::uint32_t pages_needed, SimTime now) {
  SelfProfiler::Scope prof_scope(profiler(), ProfSubsystem::kCache, ProfOp::kEviction);
  if (open_zone_ != kNoZone) {
    const ZoneDescriptor d = device_->zone(ZoneId{open_zone_});
    if (d.write_pointer + pages_needed <= d.capacity_pages) {
      return now;
    }
    // Seal the zone and rotate it into the FIFO.
    Result<SimTime> finished = device_->FinishZone(ZoneId{open_zone_}, now);
    if (!finished.ok()) {
      return finished;
    }
    zone_fifo_.push_back(open_zone_);
    open_zone_ = kNoZone;
    now = finished.value();
  }
  while (open_zone_ == kNoZone) {
    if (!free_zones_.empty()) {
      const std::uint32_t z = free_zones_.back();
      free_zones_.pop_back();
      const ZoneDescriptor d = device_->zone(ZoneId{z});
    if (d.state != ZoneState::kEmpty || d.capacity_pages == 0) {
        continue;  // Worn out; skip permanently.
      }
      open_zone_ = z;
      break;
    }
    if (zone_fifo_.empty()) {
      return ErrorCode::kDeviceFull;
    }
    // Evict the oldest zone wholesale: drop its objects and reset it. No copying — this is
    // the structural WA≈1 property of the zoned cache.
    const std::uint32_t victim = zone_fifo_.front();
    zone_fifo_.pop_front();
    const std::uint64_t evicted_before = stats_.evicted_objects;
    DropZoneObjects(victim, now);
    // The reset's block erases are cache-eviction work (the zoned cache's only reclaim I/O).
    WriteProvenance::CauseScope cause(provenance(), WriteCause::kCacheEviction,
                                      StackLayer::kCache);
    Result<SimTime> reset = device_->ResetZone(ZoneId{victim}, now);
    if (!reset.ok()) {
      return reset;
    }
    now = reset.value();
    const std::uint64_t dropped = stats_.evicted_objects - evicted_before;
    NoteEviction(now,
                 "evict zone " + std::to_string(victim) + " dropped " + std::to_string(dropped),
                 victim, dropped);
    if (device_->zone(ZoneId{victim}).state != ZoneState::kOffline) {
      free_zones_.push_back(victim);
    }
    stats_.segments_recycled++;
  }
  return now;
}

Result<SimTime> ZnsFlashCache::Put(std::uint64_t key, std::uint32_t size_bytes, SimTime now) {
  SelfProfiler::Scope prof_scope(profiler(), ProfSubsystem::kCache, ProfOp::kWrite);
  stats_.puts++;
  stats_.bytes_admitted += size_bytes;
  NoteIngressBytes(size_bytes);
  const std::uint32_t pages = PagesFor(size_bytes, device_->page_size());
  if (pages > device_->zone_size_pages()) {
    return ErrorCode::kInvalidArgument;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (IndexAuditArmed()) {
      audit_index()->Remove(now, EntryHash(key, it->second));
    }
    index_.erase(it);  // Old copy dies with its zone.
  }
  Result<SimTime> ready = EnsureOpenZone(pages, now);
  if (!ready.ok()) {
    return ready;
  }
  Result<AppendResult> appended = device_->Append(ZoneId{open_zone_}, pages, ready.value());
  if (!appended.ok()) {
    return appended.status();
  }
  Location loc;
  loc.zone = open_zone_;
  loc.offset = appended->assigned_lba - device_->zone(ZoneId{open_zone_}).start_lba;
  loc.pages = pages;
  loc.size_bytes = size_bytes;
  if (IndexAuditArmed()) {
    audit_index()->Insert(appended->completion, EntryHash(key, loc));
  }
  index_[key] = loc;
  zone_keys_[open_zone_].push_back(key);
  return appended->completion;
}

Result<CacheGetResult> ZnsFlashCache::Get(std::uint64_t key, SimTime now) {
  SelfProfiler::Scope prof_scope(profiler(), ProfSubsystem::kCache, ProfOp::kRead);
  CacheGetResult result;
  result.completion = now;
  auto it = index_.find(key);
  if (it == index_.end()) {
    stats_.misses++;
    return result;
  }
  stats_.hits++;
  result.hit = true;
  result.size_bytes = it->second.size_bytes;
  const Lba lba = device_->zone(ZoneId{it->second.zone}).start_lba + it->second.offset;
  Result<SimTime> read = device_->Read(lba, it->second.pages, now);
  if (!read.ok()) {
    return read.status();
  }
  result.completion = read.value();
  RecordGetLatency(result.completion - now);
  return result;
}

}  // namespace blockhead
