#include "src/hostftl/host_ftl.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace blockhead {

HostFtlBlockDevice::HostFtlBlockDevice(ZnsDevice* device, const HostFtlConfig& config)
    : device_(device), config_(config), scheduler_(config.sched) {
  const std::uint32_t zones = device_->num_zones();
  zone_pages_ = device_->zone_size_pages();
  const std::uint64_t physical_pages = static_cast<std::uint64_t>(zones) * zone_pages_;
  const double op = std::max(0.0, config_.op_fraction);
  const std::uint64_t op_pages =
      static_cast<std::uint64_t>(static_cast<double>(physical_pages) / (1.0 + op));
  // Always hold back at least three zones: host frontier, relocation frontier, one spare.
  const std::uint64_t reserve_pages = 3 * zone_pages_;
  logical_pages_ = std::min(op_pages, physical_pages - reserve_pages);

  // A background watermark above the steady-state free fraction would make reclamation run
  // perpetually against mostly-live zones; clamp it below the spare fraction.
  const double spare_fraction =
      1.0 - static_cast<double>(logical_pages_) / static_cast<double>(physical_pages);
  config_.sched.low_free_fraction =
      std::min(config_.sched.low_free_fraction, 0.6 * spare_fraction);
  config_.sched.critical_free_fraction =
      std::min(config_.sched.critical_free_fraction, 0.5 * config_.sched.low_free_fraction);
  scheduler_ = GcScheduler(config_.sched);

  l2p_.assign(logical_pages_, kUnmapped);
  d2l_.assign(physical_pages, kUnmapped);
  zone_live_.assign(zones, 0);
  free_zones_.reserve(zones);
  // Pop order is back-first; keep low-numbered zones first out for readability.
  for (std::uint32_t z = zones; z > 0; --z) {
    free_zones_.push_back(z - 1);
  }
}

double HostFtlBlockDevice::FreeFraction() const {
  return static_cast<double>(free_zones_.size()) / static_cast<double>(device_->num_zones());
}

bool HostFtlBlockDevice::DevicePageLive(std::uint64_t dev_lba) const {
  return d2l_[dev_lba] != kUnmapped;
}

void HostFtlBlockDevice::InvalidatePage(std::uint64_t lpn, SimTime now) {
  const std::uint64_t old = l2p_[lpn];
  if (old == kUnmapped) {
    return;
  }
  const std::uint64_t zone = old / zone_pages_;
  assert(zone_live_[zone] > 0);
  zone_live_[zone]--;
  d2l_[old] = kUnmapped;
  l2p_[lpn] = kUnmapped;
  if (audit_l2p_ != nullptr && audit_l2p_->armed()) {
    audit_l2p_->Remove(now, L2pEntryHash(lpn, old));
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
    if (free_zones_.empty()) {
      return Status(ErrorCode::kNoFreeBlocks, "host FTL out of free zones");
    }
    frontier = free_zones_.back();
    free_zones_.pop_back();
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
  l2p_[lpn] = dev_lba;
  d2l_[dev_lba] = lpn;
  zone_live_[dev_lba / zone_pages_]++;
  if (audit_l2p_ != nullptr && audit_l2p_->armed()) {
    audit_l2p_->Insert(done, L2pEntryHash(lpn, dev_lba));
  }
  return done;
}

std::uint32_t HostFtlBlockDevice::PickVictim(bool critical) const {
  std::uint32_t best = kNoZone;
  std::uint32_t best_live = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t z = 0; z < device_->num_zones(); ++z) {
    if (z == host_zone_ || z == reloc_zone_ || z == gc_victim_) {
      continue;
    }
    const ZoneDescriptor d = device_->zone(ZoneId{z});
    if (d.state != ZoneState::kFull) {
      continue;
    }
    if (zone_live_[z] >= d.capacity_pages) {
      continue;  // Fully live: reclaiming it frees nothing.
    }
    if (!critical && static_cast<double>(zone_live_[z]) >
                         config_.gc_max_live_fraction * static_cast<double>(d.capacity_pages)) {
      continue;
    }
    if (zone_live_[z] < best_live) {
      best_live = zone_live_[z];
      best = z;
    }
  }
  return best;
}

Result<SimTime> HostFtlBlockDevice::GcStep(SimTime now, bool critical,
                                           std::uint32_t max_pages) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kGc);
  // Relocation copies and the victim reset are block-emulation reclaim, not host data: the
  // doubling the paper attributes to dm-zoned-style translation shows up under this cause.
  WriteProvenance::CauseScope cause(ProvenanceOf(telemetry_),
                                    WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl);
  if (gc_victim_ == kNoZone) {
    gc_victim_ = PickVictim(critical);
    gc_offset_ = 0;
    if (gc_victim_ == kNoZone) {
      return ErrorCode::kNoFreeBlocks;
    }
    gc_cycle_copied_base_ = stats_.gc_pages_copied;
    if (telemetry_ != nullptr) {
      telemetry_->events.Append(now, TimelineEventType::kGcVictim, metric_prefix_,
                                "victim zone " + std::to_string(gc_victim_) + " live " +
                                    std::to_string(zone_live_[gc_victim_]) +
                                    (critical ? " critical" : ""),
                                gc_victim_, zone_live_[gc_victim_]);
    }
  }
  const ZoneDescriptor vd = device_->zone(ZoneId{gc_victim_});
  const std::uint32_t page_size = device_->page_size();
  SimTime t = now;
  std::uint32_t moved = 0;

  while (gc_offset_ < vd.capacity_pages && moved < max_pages) {
    if (!DevicePageLive((vd.start_lba + gc_offset_).value())) {
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
           DevicePageLive((vd.start_lba + gc_offset_ + run).value())) {
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
    const bool audit = audit_l2p_ != nullptr && audit_l2p_->armed();
    for (std::uint32_t p = 0; p < run; ++p) {
      const std::uint64_t lpn = d2l_[src + p];
      l2p_[lpn] = dst + p;
      d2l_[dst + p] = lpn;
      d2l_[src + p] = kUnmapped;
      zone_live_[gc_victim_]--;
      zone_live_[(dst + p) / zone_pages_]++;
      stats_.gc_pages_copied++;
      if (audit) {
        audit_l2p_->Replace(t, L2pEntryHash(lpn, src + p), L2pEntryHash(lpn, dst + p));
      }
    }
    gc_offset_ += run;
    moved += run;
  }
  if (telemetry_ != nullptr && moved > 0) {
    telemetry_->timeline.RecordMaintenance(metric_prefix_ + ".gc", "gc_step", now, t);
  }
  if (gc_offset_ < vd.capacity_pages) {
    return t;  // More steps needed; the victim resumes on the next call.
  }

  assert(zone_live_[gc_victim_] == 0);
  Result<SimTime> reset = device_->ResetZone(ZoneId{gc_victim_}, t);
  if (!reset.ok()) {
    return reset;
  }
  if (device_->zone(ZoneId{gc_victim_}).state != ZoneState::kOffline) {
    free_zones_.push_back(gc_victim_);
  }
  stats_.gc_cycles++;
  stats_.zones_reclaimed++;
  scheduler_.NoteRun(now);
  if (telemetry_ != nullptr) {
    const std::uint64_t copied = stats_.gc_pages_copied - gc_cycle_copied_base_;
    telemetry_->events.Append(reset.value(), TimelineEventType::kGcCycle, metric_prefix_,
                              "cycle done zone " + std::to_string(gc_victim_) + " copied " +
                                  std::to_string(copied),
                              gc_victim_, copied);
    telemetry_->timeline.AdvanceGroup(sampler_group_, reset.value());
  }
  gc_victim_ = kNoZone;
  gc_offset_ = 0;
  return reset;
}

Result<SimTime> HostFtlBlockDevice::GcRunToCompletion(SimTime now, bool critical) {
  return GcStep(now, critical, std::numeric_limits<std::uint32_t>::max());
}

std::uint32_t HostFtlBlockDevice::Pump(SimTime now, bool reads_pending,
                                       std::uint32_t max_cycles) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_),
                                 ProfSubsystem::kHostFtl, ProfOp::kMaintenance);
  std::uint32_t ran = 0;
  while (ran < max_cycles) {
    const bool pending = gc_victim_ != kNoZone;
    if (!pending && !scheduler_.ShouldRun(FreeFraction(), reads_pending, now)) {
      break;
    }
    Result<SimTime> done =
        GcStep(now, scheduler_.Critical(FreeFraction()), config_.gc_step_pages);
    if (!done.ok()) {
      break;
    }
    now = done.value();
    ++ran;
  }
  return ran;
}

Result<SimTime> HostFtlBlockDevice::WriteBlocks(Lba lba, std::uint32_t count, SimTime issue,
                                                std::span<const std::uint8_t> data) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kWrite);
  if (lba.value() + count > logical_pages_) {
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
    if (scheduler_.Critical(FreeFraction())) {
      stats_.forced_gc_stalls++;
      // The reclaim's own device ops run as host-class commands inside this write's critical
      // path: reclassify their charges as a compaction stall inflicted by zone reclaim.
      RequestPathLedger::InterferenceScope stall_scope(
          ReqPathOf(telemetry_), WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl,
          metric_prefix_ + ".gc");
      SimTime t = issue;
      while (scheduler_.Critical(FreeFraction())) {
        Result<SimTime> done = GcRunToCompletion(t, /*critical=*/true);
        if (!done.ok()) {
          break;
        }
        t = done.value();
      }
      scheduler_.NoteForcedStall(t - issue);
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
  if (lba.value() + count > logical_pages_) {
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
    const std::uint64_t dev_lba = l2p_[lba.value() + i];
    if (dev_lba == kUnmapped) {
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
  if (lba.value() + count > logical_pages_) {
    return ErrorCode::kOutOfRange;
  }
  RequestPathLedger::RequestScope req_scope(ForegroundReqPathOf(telemetry_),
                                            RequestContext{0, ReqOp::kTrim}, issue);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (l2p_[lba.value() + i] != kUnmapped) {
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
    scheduler_.AttachEvents(nullptr, "");
  }
  telemetry_ = telemetry;
  metric_prefix_ = std::string(prefix);
  if (telemetry_ == nullptr) {
    sampler_group_ = -1;
    provenance_ingress_ = nullptr;
    audit_l2p_ = nullptr;
    write_span_ = nullptr;
    read_span_ = nullptr;
    return;
  }
  write_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".write");
  read_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".read");
  telemetry_->registry.AddProvider(metric_prefix_, [this] { PublishMetrics(); });
  audit_l2p_ = telemetry_->audit.Register(metric_prefix_ + ".l2p");
  provenance_ingress_ = telemetry_->provenance.RegisterDomain(metric_prefix_);
  scheduler_.AttachEvents(&telemetry_->events, metric_prefix_ + ".sched");

  Timeline& tl = telemetry_->timeline;
  sampler_group_ = tl.AddSamplerGroup(metric_prefix_);
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
  const GcSchedStats& sched = scheduler_.stats();
  reg.GetCounter(p + ".sched.decisions")->Set(sched.decisions);
  reg.GetCounter(p + ".sched.allowed")->Set(sched.allowed);
  reg.GetCounter(p + ".sched.critical_overrides")->Set(sched.critical_overrides);
  reg.GetCounter(p + ".sched.denied")->Set(sched.denied);
  reg.GetCounter(p + ".sched.runs")->Set(sched.runs);
  reg.GetCounter(p + ".sched.forced_stall_ns")->Set(sched.forced_stall_ns);
  reg.GetGauge(p + ".free_zones")->Set(static_cast<double>(FreeZones()));
  reg.GetGauge(p + ".free_fraction")->Set(FreeFraction());
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
  return logical_pages_ * 4 + d2l_.size() * 4;
}

Status HostFtlBlockDevice::CheckConsistency() const {
  for (std::uint64_t lpn = 0; lpn < logical_pages_; ++lpn) {
    const std::uint64_t dev_lba = l2p_[lpn];
    if (dev_lba == kUnmapped) {
      continue;
    }
    if (dev_lba >= d2l_.size() || d2l_[dev_lba] != lpn) {
      return Status(ErrorCode::kCorruption, "l2p/d2l mismatch");
    }
  }
  std::vector<std::uint32_t> live(device_->num_zones(), 0);
  for (std::uint64_t dev_lba = 0; dev_lba < d2l_.size(); ++dev_lba) {
    if (d2l_[dev_lba] != kUnmapped) {
      live[dev_lba / zone_pages_]++;
    }
  }
  for (std::uint32_t z = 0; z < device_->num_zones(); ++z) {
    if (live[z] != zone_live_[z]) {
      return Status(ErrorCode::kCorruption, "zone live counter drift");
    }
  }
  return Status::Ok();
}

}  // namespace blockhead
