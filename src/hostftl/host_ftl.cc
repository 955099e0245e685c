#include "src/hostftl/host_ftl.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace blockhead {

HostFtlBlockDevice::HostFtlBlockDevice(ZnsDevice* device, const HostFtlConfig& config)
    : device_(device),
      config_(config),
      reclaimer_(device, config.sched, /*first_zone=*/0, kGcMaxLiveFraction, kGcStepPages) {
  const std::uint32_t zones = device_->num_zones();
  zone_pages_ = device_->zone_size_pages();
  const std::uint64_t physical_pages = static_cast<std::uint64_t>(zones) * zone_pages_;
  const double op = std::max(0.0, config_.op_fraction);
  const std::uint64_t op_pages =
      static_cast<std::uint64_t>(static_cast<double>(physical_pages) / (1.0 + op));
  // Always hold back at least three zones: host frontier, relocation frontier, one spare.
  const std::uint64_t reserve_pages = 3 * zone_pages_;
  const std::uint64_t logical_pages = std::min(op_pages, physical_pages - reserve_pages);

  // A background watermark above the steady-state free fraction would make reclamation run
  // perpetually against mostly-live zones; clamp it below the spare fraction.
  const double spare_fraction =
      1.0 - static_cast<double>(logical_pages) / static_cast<double>(physical_pages);
  config_.sched.low_free_fraction =
      std::min(config_.sched.low_free_fraction, 0.6 * spare_fraction);
  config_.sched.critical_free_fraction =
      std::min(config_.sched.critical_free_fraction, 0.5 * config_.sched.low_free_fraction);
  reclaimer_.scheduler() = GcScheduler(config_.sched);

  map_ = PageMap(logical_pages, physical_pages);
  // Pop order is back-first; keep low-numbered zones first out for readability.
  for (std::uint32_t z = zones; z > 0; --z) {
    reclaimer_.AddFreeZone(z - 1);
  }
}

void HostFtlBlockDevice::InvalidatePage(std::uint64_t lpn, SimTime now) {
  const PageMap::Entry old = map_.Unmap(lpn, now);
  if (old != PageMap::kUnmapped) {
    reclaimer_.DropLive(static_cast<std::uint32_t>(old / zone_pages_), 1);
  }
}

Status HostFtlBlockDevice::EnsureFrontier(bool relocation, SimTime now) {
  std::uint32_t& frontier = relocation ? reloc_zone_ : host_zone_;
  while (true) {
    if (frontier != kNoZone) {
      const ZoneDescriptor d = device_->zone(ZoneId{frontier});
      if (d.state != ZoneState::kFull && d.state != ZoneState::kOffline &&
          d.write_pointer < d.capacity_pages) {
        return Status::Ok();
      }
      frontier = kNoZone;  // Sealed or unusable; pick a new one.
    }
    frontier = reclaimer_.TakeFreeZone();
    if (frontier == kNoZone) {
      return Status(ErrorCode::kNoFreeBlocks, "host FTL out of free zones");
    }
    const ZoneDescriptor d = device_->zone(ZoneId{frontier});
    if (d.state == ZoneState::kOffline || d.capacity_pages == 0) {
      frontier = kNoZone;  // Worn-out zone: drop it permanently.
      continue;
    }
    (void)now;
    return Status::Ok();
  }
}

Result<SimTime> HostFtlBlockDevice::AppendPage(std::uint64_t lpn, SimTime issue,
                                               std::span<const std::uint8_t> data) {
  BLOCKHEAD_RETURN_IF_ERROR(EnsureFrontier(/*relocation=*/false, issue));
  const ZoneDescriptor d = device_->zone(ZoneId{host_zone_});
  std::uint64_t dev_lba = (d.start_lba + d.write_pointer).value();
  SimTime done = 0;
  if (config_.use_append) {
    Result<AppendResult> r = device_->Append(ZoneId{host_zone_}, 1, issue, data);
    if (!r.ok()) {
      return r.status();
    }
    dev_lba = r->assigned_lba.value();
    done = r->completion;
  } else {
    Result<SimTime> r = device_->Write(ZoneId{host_zone_}, d.write_pointer, 1, issue, data);
    if (!r.ok()) {
      return r;
    }
    done = r.value();
  }
  InvalidatePage(lpn, done);
  map_.Map(lpn, dev_lba, done);
  reclaimer_.AddLive(host_zone_, 1);
  return done;
}

Result<SimTime> HostFtlBlockDevice::GcStep(SimTime now, bool critical,
                                           std::uint32_t max_pages) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kGc);
  // Relocation copies and the victim reset are block-emulation reclaim, not host data: the
  // doubling the paper attributes to dm-zoned-style translation shows up under this cause.
  WriteProvenance::CauseScope cause(ProvenanceOf(telemetry_),
                                    WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl);
  if (reclaimer_.victim() == kNoZone) {
    const std::uint32_t skip[] = {host_zone_, reloc_zone_};
    BLOCKHEAD_RETURN_IF_ERROR(reclaimer_.BeginCycle(now, critical, skip, stats_.gc_pages_copied));
  }
  const ZoneDescriptor vd = device_->zone(ZoneId{reclaimer_.victim()});
  const std::uint32_t page_size = device_->page_size();
  SimTime t = now;
  std::uint32_t moved = 0;

  while (gc_offset_ < vd.capacity_pages && moved < max_pages) {
    if (!map_.Live((vd.start_lba + gc_offset_).value())) {
      gc_offset_++;
      continue;
    }
    // Relocate a contiguous live run in one ranged operation: contiguous device LBAs stripe
    // across planes, so the copy pipelines instead of paying a full read+program round trip
    // per page.
    BLOCKHEAD_RETURN_IF_ERROR(EnsureFrontier(/*relocation=*/true, t));
    const ZoneDescriptor rd = device_->zone(ZoneId{reloc_zone_});
    std::uint32_t run = 1;
    while (gc_offset_ + run < vd.capacity_pages && moved + run < max_pages &&
           run < rd.capacity_pages - rd.write_pointer &&
           map_.Live((vd.start_lba + gc_offset_ + run).value())) {
      ++run;
    }
    const std::uint64_t src = (vd.start_lba + gc_offset_).value();
    const std::uint64_t dst = (rd.start_lba + rd.write_pointer).value();
    if (config_.use_simple_copy) {
      // Device-internal copy: no host-bus traffic (§2.3).
      const CopyRange range{Lba{src}, run};
      Result<SimTime> done =
          device_->SimpleCopy(std::span<const CopyRange>(&range, 1), ZoneId{reloc_zone_}, t);
      if (!done.ok()) {
        return done;
      }
      t = std::max(t, done.value());
    } else {
      // Host read + host write: the copy crosses PCIe twice.
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(run) * page_size);
      Result<SimTime> r = device_->Read(Lba{src}, run, t, buf);
      if (!r.ok()) {
        return r;
      }
      Result<SimTime> w =
          device_->Write(ZoneId{reloc_zone_}, rd.write_pointer, run, r.value(), buf);
      if (!w.ok()) {
        return w;
      }
      t = std::max(t, w.value());
      stats_.gc_host_bus_bytes += 2ULL * run * page_size;
    }
    for (std::uint32_t p = 0; p < run; ++p) {
      map_.Move(src + p, dst + p, t);
    }
    reclaimer_.DropLive(reclaimer_.victim(), run);
    reclaimer_.AddLive(reloc_zone_, run);
    stats_.gc_pages_copied += run;
    gc_offset_ += run;
    moved += run;
  }
  reclaimer_.NoteStep(now, t, moved);
  if (gc_offset_ < vd.capacity_pages) {
    return t;  // More steps needed; the victim resumes on the next call.
  }

  Result<SimTime> reset = reclaimer_.FinishCycle(now, t, stats_.gc_pages_copied);
  if (!reset.ok()) {
    return reset;
  }
  stats_.gc_cycles++;
  stats_.zones_reclaimed++;
  gc_offset_ = 0;
  return reset;
}

std::uint32_t HostFtlBlockDevice::Pump(SimTime now, bool reads_pending,
                                       std::uint32_t max_cycles) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_),
                                 ProfSubsystem::kHostFtl, ProfOp::kMaintenance);
  return reclaimer_.Pump(now, reads_pending, max_cycles,
                         std::bind_front(&HostFtlBlockDevice::GcStep, this));
}

Result<SimTime> HostFtlBlockDevice::WriteBlocks(Lba lba, std::uint32_t count, SimTime issue,
                                                std::span<const std::uint8_t> data) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kWrite);
  if (lba.value() + count > num_blocks()) {
    return ErrorCode::kOutOfRange;
  }
  const std::uint32_t page_size = device_->page_size();
  if (!data.empty() && data.size() != static_cast<std::size_t>(count) * page_size) {
    return ErrorCode::kInvalidArgument;
  }
  Tracer::Span span = Tracer::Start(write_span_, issue);
  // Foreground host op: own the request-path measurement unless internal work (a CauseScope)
  // or an outer layer already does.
  RequestPathLedger::RequestScope req_scope(ForegroundReqPathOf(telemetry_),
                                            RequestContext{0, ReqOp::kWrite}, issue);
  SimTime ack = issue;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Mandatory reclamation when space is critical; the triggering write absorbs the delay,
    // exactly like foreground GC inside a conventional SSD — except here it is host policy.
    if (reclaimer_.Critical()) {
      stats_.forced_gc_stalls++;
      // The reclaim's own device ops run as host-class commands inside this write's critical
      // path: reclassify their charges as a compaction stall inflicted by zone reclaim.
      RequestPathLedger::InterferenceScope stall_scope(
          ReqPathOf(telemetry_), WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl,
          metric_prefix_ + ".gc");
      const SimTime t =
          reclaimer_.RunWhileCritical(issue, std::bind_front(&HostFtlBlockDevice::GcStep, this));
      reclaimer_.scheduler().NoteForcedStall(t - issue);
    }
    std::span<const std::uint8_t> page_data;
    if (!data.empty()) {
      page_data = data.subspan(static_cast<std::size_t>(i) * page_size, page_size);
    }
    Result<SimTime> done = AppendPage(lba.value() + i, issue, page_data);
    if (!done.ok()) {
      return done;
    }
    stats_.host_pages_written++;
    if (provenance_ingress_ != nullptr) {
      *provenance_ingress_ += Bytes{page_size};
    }
    ack = std::max(ack, done.value());
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, ack);
  }
  span.End(ack);
  req_scope.Complete(ack);
  return ack;
}

Result<SimTime> HostFtlBlockDevice::ReadBlocks(Lba lba, std::uint32_t count, SimTime issue,
                                               std::span<std::uint8_t> out) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kRead);
  if (lba.value() + count > num_blocks()) {
    return ErrorCode::kOutOfRange;
  }
  const std::uint32_t page_size = device_->page_size();
  if (!out.empty() && out.size() != static_cast<std::size_t>(count) * page_size) {
    return ErrorCode::kInvalidArgument;
  }
  Tracer::Span span = Tracer::Start(read_span_, issue);
  RequestPathLedger::RequestScope req_scope(ForegroundReqPathOf(telemetry_),
                                            RequestContext{0, ReqOp::kRead}, issue);
  SimTime done_all = issue;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::span<std::uint8_t> page_out;
    if (!out.empty()) {
      page_out = out.subspan(static_cast<std::size_t>(i) * page_size, page_size);
    }
    stats_.host_pages_read++;
    const PageMap::Entry dev_lba = map_.Lookup(lba.value() + i);
    if (dev_lba == PageMap::kUnmapped) {
      // Unmapped logical page: the host FTL itself serves zeros.
      if (!page_out.empty()) {
        std::memset(page_out.data(), 0, page_out.size());
      }
      continue;
    }
    Result<SimTime> done = device_->Read(Lba{dev_lba}, 1, issue, page_out);
    if (!done.ok()) {
      return done;
    }
    done_all = std::max(done_all, done.value());
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, done_all);
  }
  span.End(done_all);
  req_scope.Complete(done_all);
  return done_all;
}

Result<SimTime> HostFtlBlockDevice::TrimBlocks(Lba lba, std::uint32_t count, SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kOther);
  if (lba.value() + count > num_blocks()) {
    return ErrorCode::kOutOfRange;
  }
  RequestPathLedger::RequestScope req_scope(ForegroundReqPathOf(telemetry_),
                                            RequestContext{0, ReqOp::kTrim}, issue);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (map_.Lookup(lba.value() + i) != PageMap::kUnmapped) {
      InvalidatePage(lba.value() + i, issue);
      stats_.pages_trimmed++;
    }
  }
  req_scope.Complete(issue);
  return issue;
}

HostFtlBlockDevice::~HostFtlBlockDevice() { AttachTelemetry(nullptr); }

void HostFtlBlockDevice::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_);
    telemetry_->timeline.RemoveSamplerGroup(metric_prefix_);
    reclaimer_.AttachTelemetry(nullptr, "", -1);
  }
  telemetry_ = telemetry;
  metric_prefix_ = std::string(prefix);
  if (telemetry_ == nullptr) {
    sampler_group_ = -1;
    provenance_ingress_ = nullptr;
    map_.AttachAudit(nullptr);
    write_span_ = nullptr;
    read_span_ = nullptr;
    return;
  }
  write_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".write");
  read_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".read");
  telemetry_->registry.AddProvider(metric_prefix_, [this] { PublishMetrics(); });
  map_.AttachAudit(telemetry_->audit.Register(metric_prefix_ + ".l2p"));
  provenance_ingress_ = telemetry_->provenance.RegisterDomain(metric_prefix_);

  Timeline& tl = telemetry_->timeline;
  sampler_group_ = tl.AddSamplerGroup(metric_prefix_);
  reclaimer_.AttachTelemetry(telemetry_, metric_prefix_, sampler_group_);
  tl.AddSampler(sampler_group_, metric_prefix_ + ".free_fraction",
                Timeline::SampleKind::kInstant, [this](SimTime) { return FreeFraction(); });
  tl.AddSampler(sampler_group_, metric_prefix_ + ".write_amplification",
                Timeline::SampleKind::kInstant,
                [this](SimTime) { return EndToEndWriteAmplification(); });
}

void HostFtlBlockDevice::PublishMetrics() {
  MetricRegistry& reg = telemetry_->registry;
  const std::string& p = metric_prefix_;
  reg.GetCounter(p + ".host_pages_written")->Set(stats_.host_pages_written);
  reg.GetCounter(p + ".host_pages_read")->Set(stats_.host_pages_read);
  reg.GetCounter(p + ".pages_trimmed")->Set(stats_.pages_trimmed);
  reg.GetCounter(p + ".gc.cycles")->Set(stats_.gc_cycles);
  reg.GetCounter(p + ".gc.pages_copied")->Set(stats_.gc_pages_copied);
  reg.GetCounter(p + ".gc.zones_reclaimed")->Set(stats_.zones_reclaimed);
  reg.GetCounter(p + ".gc.host_bus_bytes")->Set(stats_.gc_host_bus_bytes);
  reg.GetCounter(p + ".gc.forced_stalls")->Set(stats_.forced_gc_stalls);
  reclaimer_.PublishMetrics();
  reg.GetCounter(p + ".sched.forced_stall_ns")->Set(scheduler().stats().forced_stall_ns);
  reg.GetGauge(p + ".write_amplification")->Set(EndToEndWriteAmplification());
  reg.GetGauge(p + ".host_mapping_bytes")->Set(static_cast<double>(HostMappingBytes()));
}

double HostFtlBlockDevice::EndToEndWriteAmplification() const {
  if (stats_.host_pages_written == 0) {
    return 1.0;
  }
  return static_cast<double>(device_->flash().stats().total_pages_programmed()) /
         static_cast<double>(stats_.host_pages_written);
}

std::uint64_t HostFtlBlockDevice::HostMappingBytes() const {
  // 4 B per forward entry + 4 B per reverse entry (paper's per-entry model, now in host DRAM).
  return map_.forward_bytes() + map_.reverse_bytes();
}

Status HostFtlBlockDevice::CheckConsistency() const {
  BLOCKHEAD_RETURN_IF_ERROR(map_.Check());
  if (!reclaimer_.LiveMatches(map_.LiveCounts(zone_pages_))) {
    return Status(ErrorCode::kCorruption, "zone live counter drift");
  }
  return Status::Ok();
}

}  // namespace blockhead
