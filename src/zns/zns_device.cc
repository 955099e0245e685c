#include "src/zns/zns_device.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace blockhead {

const char* ZoneStateName(ZoneState state) {
  switch (state) {
    case ZoneState::kEmpty:
      return "EMPTY";
    case ZoneState::kImplicitOpen:
      return "IMPLICIT_OPEN";
    case ZoneState::kExplicitOpen:
      return "EXPLICIT_OPEN";
    case ZoneState::kClosed:
      return "CLOSED";
    case ZoneState::kFull:
      return "FULL";
    case ZoneState::kReadOnly:
      return "READ_ONLY";
    case ZoneState::kOffline:
      return "OFFLINE";
  }
  return "UNKNOWN";
}

namespace {

bool IsOpen(ZoneState s) {
  return s == ZoneState::kImplicitOpen || s == ZoneState::kExplicitOpen;
}

bool IsActive(ZoneState s) { return IsOpen(s) || s == ZoneState::kClosed; }

}  // namespace

ZnsDevice::ZnsDevice(const FlashConfig& flash_config, const ZnsConfig& zns_config)
    : flash_(flash_config), config_(zns_config) {
  const FlashGeometry& g = flash_.geometry();
  CheckConfig(config_.Validate(g), "ZnsConfig");
  const std::uint32_t width =
      config_.planes_per_zone == 0 ? g.total_planes() : config_.planes_per_zone;
  const std::uint32_t num_groups = g.total_planes() / width;
  const std::uint32_t num_zones = num_groups * g.blocks_per_plane;
  zone_size_pages_ = static_cast<std::uint64_t>(width) * g.pages_per_block;

  // Zone z takes block z / num_groups on every plane of group z % num_groups, interleaved so
  // consecutive pages program on different planes.
  zones_.resize(num_zones);
  for (std::uint32_t z = 0; z < num_zones; ++z) {
    Zone& zone = zones_[z];
    const std::uint32_t group = z % num_groups;
    zone.units.reserve(width);
    for (std::uint32_t i = 0; i < width; ++i) {
      const std::uint32_t plane_index = group * width + i;
      StripeUnit unit;
      unit.channel = ChannelId{plane_index / g.planes_per_channel};
      unit.plane = PlaneId{plane_index % g.planes_per_channel};
      unit.block = BlockId{z / num_groups};
      zone.units.push_back(unit);
    }
    zone.capacity_pages = zone_size_pages_;
  }
}

ZnsDevice::~ZnsDevice() { AttachTelemetry(nullptr); }

void ZnsDevice::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_ + ".zns");
    telemetry_->timeline.RemoveSamplerGroup(metric_prefix_ + ".zns");
  }
  telemetry_ = telemetry;
  metric_prefix_ = std::string(prefix);
  if (telemetry_ == nullptr) {
    flash_.AttachTelemetry(nullptr);
    append_latency_ = nullptr;
    write_latency_ = nullptr;
    read_latency_ = nullptr;
    audit_zones_ = nullptr;
    sampler_group_ = -1;
    return;
  }
  audit_zones_ = telemetry_->audit.Register(metric_prefix_ + ".zones");
  flash_.AttachTelemetry(telemetry_, metric_prefix_ + ".flash");
  append_latency_ = telemetry_->registry.GetHistogram(metric_prefix_ + ".append.latency_ns");
  write_latency_ = telemetry_->registry.GetHistogram(metric_prefix_ + ".write.latency_ns");
  read_latency_ = telemetry_->registry.GetHistogram(metric_prefix_ + ".read.latency_ns");
  telemetry_->registry.AddProvider(metric_prefix_ + ".zns", [this] { PublishMetrics(); });

  Timeline& tl = telemetry_->timeline;
  sampler_group_ = tl.AddSamplerGroup(metric_prefix_ + ".zns");
  tl.AddSampler(sampler_group_, metric_prefix_ + ".active_zones",
                Timeline::SampleKind::kInstant,
                [this](SimTime) { return static_cast<double>(active_count_); });
  tl.AddSampler(sampler_group_, metric_prefix_ + ".open_zones", Timeline::SampleKind::kInstant,
                [this](SimTime) { return static_cast<double>(open_count_); });
}

void ZnsDevice::NoteZoneTransition(const Zone& z, ZoneState from, ZoneState to, SimTime t) {
  if (telemetry_ == nullptr || from == to) {
    return;
  }
  const std::uint32_t zone_id = static_cast<std::uint32_t>(&z - zones_.data());
  telemetry_->events.Append(t, TimelineEventType::kZoneTransition, metric_prefix_,
                            "zone " + std::to_string(zone_id) + " " + ZoneStateName(from) +
                                "->" + ZoneStateName(to),
                            zone_id, static_cast<std::uint64_t>(to));
}

void ZnsDevice::PublishMetrics() {
  MetricRegistry& reg = telemetry_->registry;
  const std::string& p = metric_prefix_;
  reg.GetCounter(p + ".pages_written")->Set(stats_.pages_written);
  reg.GetCounter(p + ".pages_appended")->Set(stats_.pages_appended);
  reg.GetCounter(p + ".pages_read")->Set(stats_.pages_read);
  reg.GetCounter(p + ".pages_copied")->Set(stats_.pages_copied);
  reg.GetCounter(p + ".zone_resets")->Set(stats_.zone_resets);
  reg.GetCounter(p + ".zone_finishes")->Set(stats_.zone_finishes);
  reg.GetCounter(p + ".wp_mismatch_errors")->Set(stats_.wp_mismatch_errors);
  reg.GetCounter(p + ".active_limit_rejections")->Set(stats_.active_limit_rejections);
  reg.GetGauge(p + ".active_zones")->Set(active_count_);
  reg.GetGauge(p + ".open_zones")->Set(open_count_);
  const DramUsage dram = ComputeDramUsage();
  reg.GetGauge(p + ".dram.mapping_bytes")->Set(static_cast<double>(dram.mapping_bytes));
  reg.GetGauge(p + ".dram.gc_metadata_bytes")->Set(static_cast<double>(dram.gc_metadata_bytes));
  reg.GetGauge(p + ".dram.write_buffer_bytes")->Set(static_cast<double>(dram.write_buffer_bytes));
  reg.GetGauge(p + ".dram.total_bytes")->Set(static_cast<double>(dram.total()));
}

std::uint64_t ZnsDevice::capacity_bytes() const {
  return static_cast<std::uint64_t>(zones_.size()) * zone_size_pages_ *
         flash_.geometry().page_size;
}

ZoneDescriptor ZnsDevice::zone(ZoneId zone_id) const {
  assert(zone_id.value() < zones_.size());
  const Zone& z = zones_[zone_id.value()];
  ZoneDescriptor d;
  d.zone_id = zone_id;
  d.state = z.state;
  d.start_lba = Lba{static_cast<std::uint64_t>(zone_id.value()) * zone_size_pages_};
  d.capacity_pages = z.capacity_pages;
  d.write_pointer = z.write_pointer;
  return d;
}

Result<ZoneId> ZnsDevice::ZoneOfLba(Lba lba) const {
  const std::uint64_t zone_index = lba.value() / zone_size_pages_;
  if (zone_index >= zones_.size()) {
    return ErrorCode::kOutOfRange;
  }
  return ZoneId{static_cast<std::uint32_t>(zone_index)};
}

PhysAddr ZnsDevice::AddrOf(const Zone& z, std::uint64_t offset) const {
  const std::size_t unit_index = static_cast<std::size_t>(offset % z.units.size());
  const StripeUnit& unit = z.units[unit_index];
  PhysAddr a;
  a.channel = unit.channel;
  a.plane = unit.plane;
  a.block = unit.block;
  a.page = PageId{static_cast<std::uint32_t>(offset / z.units.size())};
  return a;
}

Status ZnsDevice::EnsureWritable(Zone& z, bool explicit_open, SimTime now) {
  switch (z.state) {
    case ZoneState::kImplicitOpen:
    case ZoneState::kExplicitOpen:
      return Status::Ok();
    case ZoneState::kEmpty:
      if (active_count_ >= config_.max_active_zones) {
        stats_.active_limit_rejections++;
        return Status(ErrorCode::kTooManyActiveZones);
      }
      if (open_count_ >= config_.max_open_zones) {
        stats_.active_limit_rejections++;
        return Status(ErrorCode::kTooManyOpenZones);
      }
      {
        const bool audit = ZoneAuditArmed();
        const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
        z.state = explicit_open ? ZoneState::kExplicitOpen : ZoneState::kImplicitOpen;
        if (audit) {
          audit_zones_->Replace(now, pre, ZoneEntryHash(z));
        }
      }
      active_count_++;
      open_count_++;
      NoteZoneTransition(z, ZoneState::kEmpty, z.state, now);
      return Status::Ok();
    case ZoneState::kClosed:
      if (open_count_ >= config_.max_open_zones) {
        stats_.active_limit_rejections++;
        return Status(ErrorCode::kTooManyOpenZones);
      }
      {
        const bool audit = ZoneAuditArmed();
        const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
        z.state = explicit_open ? ZoneState::kExplicitOpen : ZoneState::kImplicitOpen;
        if (audit) {
          audit_zones_->Replace(now, pre, ZoneEntryHash(z));
        }
      }
      open_count_++;
      NoteZoneTransition(z, ZoneState::kClosed, z.state, now);
      return Status::Ok();
    case ZoneState::kFull:
      return Status(ErrorCode::kZoneFull);
    case ZoneState::kReadOnly:
      return Status(ErrorCode::kZoneReadOnly);
    case ZoneState::kOffline:
      return Status(ErrorCode::kZoneOffline);
  }
  return Status(ErrorCode::kInternal);
}

void ZnsDevice::ReleaseActive(Zone& z) {
  if (IsOpen(z.state)) {
    assert(open_count_ > 0);
    open_count_--;
  }
  if (IsActive(z.state)) {
    assert(active_count_ > 0);
    active_count_--;
  }
}

SimTime ZnsDevice::BufferAck(Zone& z, std::uint32_t pages, SimTime data_in,
                             SimTime program_done) {
  if (config_.zone_write_buffer_pages == 0) {
    return program_done;  // Unbuffered: the command completes with the cell program.
  }
  SimTime ack = data_in;
  for (std::uint32_t i = 0; i < pages; ++i) {
    z.inflight.push_back(program_done);
    if (z.inflight.size() > config_.zone_write_buffer_pages) {
      ack = std::max(ack, z.inflight.front());
      z.inflight.pop_front();
    }
  }
  return ack;
}

// lint: provenance-passthrough — every flash op here executes a host-issued ZNS command
// (Write/Append/Reset/SimpleCopy); attribution belongs to the scope the command issuer
// holds open (e.g. the zone filesystem's kZoneCompaction during its GC), so this layer
// must not override it with a scope of its own.
Result<SimTime> ZnsDevice::ProgramAtWp(Zone& z, std::uint32_t pages, SimTime issue,
                                       std::span<const std::uint8_t> data, OpClass op_class) {
  const std::uint32_t page_size = flash_.geometry().page_size;
  const bool audit = ZoneAuditArmed();
  SimTime done_all = issue;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const PhysAddr addr = AddrOf(z, z.write_pointer);
    std::span<const std::uint8_t> page_data;
    if (!data.empty()) {
      page_data = data.subspan(static_cast<std::size_t>(i) * page_size, page_size);
    }
    Result<SimTime> done = flash_.ProgramPage(addr, issue, page_data, op_class);
    if (!done.ok()) {
      return done;
    }
    done_all = std::max(done_all, done.value());
    const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
    z.write_pointer++;
    z.programmed_pages = z.write_pointer;
    if (audit) {
      audit_zones_->Replace(done.value(), pre, ZoneEntryHash(z));
    }
  }
  if (z.write_pointer >= z.capacity_pages) {
    const ZoneState prev = z.state;
    const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
    ReleaseActive(z);
    z.state = ZoneState::kFull;
    if (audit) {
      audit_zones_->Replace(done_all, pre, ZoneEntryHash(z));
    }
    NoteZoneTransition(z, prev, ZoneState::kFull, done_all);
  }
  return done_all;
}

Result<SimTime> ZnsDevice::Write(ZoneId zone_id, std::uint64_t offset, std::uint32_t pages,
                                 SimTime issue, std::span<const std::uint8_t> data) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kWrite);
  if (zone_id.value() >= zones_.size() || pages == 0) {
    return ErrorCode::kOutOfRange;
  }
  Zone& z = zones_[zone_id.value()];
  const std::uint32_t page_size = flash_.geometry().page_size;
  if (!data.empty() && data.size() != static_cast<std::size_t>(pages) * page_size) {
    return ErrorCode::kInvalidArgument;
  }
  if (z.state == ZoneState::kOffline) {
    return ErrorCode::kZoneOffline;
  }
  if (z.state == ZoneState::kReadOnly) {
    return ErrorCode::kZoneReadOnly;
  }
  // Host-side write-pointer serialization: a regular write can only be formed once the
  // previous write's outcome (the new write pointer) is known.
  const SimTime effective_issue = std::max(issue, z.write_serial_point);
  if (telemetry_ != nullptr) {
    // The serialization wait is host-visible queueing invisible to the flash model: charge
    // it here so the request-path identity still closes wall to wall.
    telemetry_->reqpath.ChargeInterval(issue, effective_issue, PathSegment::kDeviceQueue);
  }
  if (offset != z.write_pointer) {
    stats_.wp_mismatch_errors++;
    return ErrorCode::kWritePointerMismatch;
  }
  if (z.write_pointer + pages > z.capacity_pages) {
    return ErrorCode::kZoneFull;
  }
  BLOCKHEAD_RETURN_IF_ERROR(EnsureWritable(z, /*explicit_open=*/false, effective_issue));
  Result<SimTime> done = ProgramAtWp(z, pages, effective_issue, data, OpClass::kHost);
  if (!done.ok()) {
    return done;
  }
  stats_.pages_written += pages;
  const SimTime data_in =
      effective_issue + static_cast<SimTime>(pages) * flash_.timing().channel_xfer;
  const SimTime ack = BufferAck(z, pages, data_in, done.value());
  // The next writer may form its command once this ack (the new write pointer) has been
  // observed and the zone lock handed over.
  z.write_serial_point = ack + kWpSyncOverhead;
  if (write_latency_ != nullptr) {
    // Measured from the caller's issue time, so write-pointer serialization waits show up.
    write_latency_->Record(ack - issue);
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, ack);
  }
  return ack;
}

Result<AppendResult> ZnsDevice::Append(ZoneId zone_id, std::uint32_t pages, SimTime issue,
                                       std::span<const std::uint8_t> data) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kAppend);
  if (zone_id.value() >= zones_.size() || pages == 0) {
    return ErrorCode::kOutOfRange;
  }
  Zone& z = zones_[zone_id.value()];
  const std::uint32_t page_size = flash_.geometry().page_size;
  if (!data.empty() && data.size() != static_cast<std::size_t>(pages) * page_size) {
    return ErrorCode::kInvalidArgument;
  }
  if (z.state == ZoneState::kOffline) {
    return ErrorCode::kZoneOffline;
  }
  if (z.state == ZoneState::kReadOnly) {
    return ErrorCode::kZoneReadOnly;
  }
  if (z.write_pointer + pages > z.capacity_pages) {
    return ErrorCode::kZoneFull;
  }
  BLOCKHEAD_RETURN_IF_ERROR(EnsureWritable(z, /*explicit_open=*/false, issue));
  const Lba assigned{static_cast<std::uint64_t>(zone_id.value()) * zone_size_pages_ +
                     z.write_pointer};
  // No host-side serialization: the device orders concurrent appends itself.
  Result<SimTime> done = ProgramAtWp(z, pages, issue, data, OpClass::kHost);
  if (!done.ok()) {
    return done.status();
  }
  stats_.pages_appended += pages;
  const SimTime data_in = issue + static_cast<SimTime>(pages) * flash_.timing().channel_xfer;
  const SimTime ack = BufferAck(z, pages, data_in, done.value());
  if (append_latency_ != nullptr) {
    append_latency_->Record(ack - issue);
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, ack);
  }
  return AppendResult{ack, assigned};
}

Result<SimTime> ZnsDevice::Read(Lba lba, std::uint32_t pages, SimTime issue,
                                std::span<std::uint8_t> out) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kRead);
  const std::uint32_t page_size = flash_.geometry().page_size;
  if (!out.empty() && out.size() != static_cast<std::size_t>(pages) * page_size) {
    return ErrorCode::kInvalidArgument;
  }
  SimTime done_all = issue;
  for (std::uint32_t i = 0; i < pages; ++i) {
    Result<ZoneId> zone_id = ZoneOfLba(lba + i);
    if (!zone_id.ok()) {
      return zone_id.status();
    }
    Zone& z = zones_[zone_id.value().value()];
    if (z.state == ZoneState::kOffline) {
      return ErrorCode::kZoneOffline;
    }
    const std::uint64_t offset = (lba.value() + i) % zone_size_pages_;
    std::span<std::uint8_t> page_out;
    if (!out.empty()) {
      page_out = out.subspan(static_cast<std::size_t>(i) * page_size, page_size);
    }
    stats_.pages_read++;
    if (offset >= z.programmed_pages || offset >= z.capacity_pages) {
      // Unwritten LBAs read as zeros without touching flash.
      if (!page_out.empty()) {
        std::memset(page_out.data(), 0, page_out.size());
      }
      done_all = std::max(done_all, issue + flash_.timing().channel_xfer);
      continue;
    }
    Result<SimTime> done = flash_.ReadPage(AddrOf(z, offset), issue, page_out, OpClass::kHost);
    if (!done.ok()) {
      return done;
    }
    done_all = std::max(done_all, done.value());
  }
  if (read_latency_ != nullptr && pages > 0) {
    read_latency_->Record(done_all - issue);
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, done_all);
  }
  return done_all;
}

Result<SimTime> ZnsDevice::OpenZone(ZoneId zone_id, SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kOther);
  if (zone_id.value() >= zones_.size()) {
    return ErrorCode::kOutOfRange;
  }
  Zone& z = zones_[zone_id.value()];
  BLOCKHEAD_RETURN_IF_ERROR(EnsureWritable(z, /*explicit_open=*/true, issue));
  const ZoneState mid = z.state;  // ImplicitOpen -> ExplicitOpen is a loggable edge too.
  const bool audit = ZoneAuditArmed();
  const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
  z.state = ZoneState::kExplicitOpen;
  if (audit) {
    audit_zones_->Replace(issue, pre, ZoneEntryHash(z));
  }
  NoteZoneTransition(z, mid, ZoneState::kExplicitOpen, issue);
  return issue + flash_.timing().channel_xfer;
}

Result<SimTime> ZnsDevice::CloseZone(ZoneId zone_id, SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kOther);
  if (zone_id.value() >= zones_.size()) {
    return ErrorCode::kOutOfRange;
  }
  Zone& z = zones_[zone_id.value()];
  if (!IsOpen(z.state)) {
    return ErrorCode::kZoneNotOpen;
  }
  const ZoneState prev = z.state;
  const bool audit = ZoneAuditArmed();
  const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
  z.state = ZoneState::kClosed;
  if (audit) {
    audit_zones_->Replace(issue, pre, ZoneEntryHash(z));
  }
  assert(open_count_ > 0);
  open_count_--;
  NoteZoneTransition(z, prev, ZoneState::kClosed, issue);
  return issue + flash_.timing().channel_xfer;
}

Result<SimTime> ZnsDevice::FinishZone(ZoneId zone_id, SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kOther);
  if (zone_id.value() >= zones_.size()) {
    return ErrorCode::kOutOfRange;
  }
  Zone& z = zones_[zone_id.value()];
  switch (z.state) {
    case ZoneState::kFull:
      return issue;  // Idempotent.
    case ZoneState::kReadOnly:
      return ErrorCode::kZoneReadOnly;
    case ZoneState::kOffline:
      return ErrorCode::kZoneOffline;
    default:
      break;
  }
  const ZoneState prev = z.state;
  const bool audit = ZoneAuditArmed();
  const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
  ReleaseActive(z);
  z.state = ZoneState::kFull;
  z.write_pointer = z.capacity_pages;  // programmed_pages keeps the truly-written prefix.
  if (audit) {
    audit_zones_->Replace(issue, pre, ZoneEntryHash(z));
  }
  stats_.zone_finishes++;
  NoteZoneTransition(z, prev, ZoneState::kFull, issue);
  return issue + flash_.timing().channel_xfer;
}

Result<SimTime> ZnsDevice::ResetZone(ZoneId zone_id, SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kReset);
  if (zone_id.value() >= zones_.size()) {
    return ErrorCode::kOutOfRange;
  }
  Zone& z = zones_[zone_id.value()];
  if (z.state == ZoneState::kOffline) {
    return ErrorCode::kZoneOffline;
  }
  if (z.state == ZoneState::kReadOnly) {
    return ErrorCode::kZoneReadOnly;
  }
  const ZoneState prev = z.state;
  const bool audit = ZoneAuditArmed();
  const std::uint64_t pre = audit ? ZoneEntryHash(z) : 0;
  ReleaseActive(z);

  // Erase every block that has been programmed since the last reset. Issued in parallel;
  // per-plane serialization is handled by the flash model.
  SimTime done_all = issue + flash_.timing().channel_xfer;
  for (const StripeUnit& unit : z.units) {
    if (flash_.block_status(unit.channel, unit.plane, unit.block).next_page == 0) {
      continue;
    }
    Result<SimTime> done = flash_.EraseBlock(unit.channel, unit.plane, unit.block, issue);
    if (!done.ok() && done.code() != ErrorCode::kBlockBad) {
      return done;
    }
    if (done.ok()) {
      done_all = std::max(done_all, done.value());
    }
  }

  // Drop blocks that wore out: the zone shrinks (paper §2.1: "handled transparently by
  // decreasing the length of a zone after a reset, or by marking a zone as offline").
  std::erase_if(z.units, [this](const StripeUnit& u) {
    return flash_.block_status(u.channel, u.plane, u.block).bad;
  });
  z.capacity_pages =
      static_cast<std::uint64_t>(z.units.size()) * flash_.geometry().pages_per_block;
  z.write_pointer = 0;
  z.programmed_pages = 0;
  z.write_serial_point = 0;
  z.inflight.clear();
  z.state = z.units.empty() ? ZoneState::kOffline : ZoneState::kEmpty;
  if (audit) {
    audit_zones_->Replace(done_all, pre, ZoneEntryHash(z));
  }
  stats_.zone_resets++;
  NoteZoneTransition(z, prev, z.state, done_all);
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(done_all, TimelineEventType::kZoneReset, metric_prefix_,
                              "zone " + std::to_string(zone_id.value()) + " reset capacity " +
                                  std::to_string(z.capacity_pages),
                              zone_id.value(), z.capacity_pages);
    telemetry_->timeline.RecordMaintenance(metric_prefix_ + ".reset", "zone_reset", issue,
                                           done_all);
    telemetry_->timeline.AdvanceGroup(sampler_group_, done_all);
  }
  return done_all;
}

Result<SimTime> ZnsDevice::SimpleCopy(std::span<const CopyRange> sources, ZoneId dst_zone,
                                      SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZns, ProfOp::kMaintenance);
  if (dst_zone.value() >= zones_.size()) {
    return ErrorCode::kOutOfRange;
  }
  Zone& dst = zones_[dst_zone.value()];

  std::uint64_t total_pages = 0;
  for (const CopyRange& r : sources) {
    total_pages += r.pages;
  }
  if (total_pages == 0) {
    return issue;
  }
  if (dst.write_pointer + total_pages > dst.capacity_pages) {
    return ErrorCode::kZoneFull;
  }
  BLOCKHEAD_RETURN_IF_ERROR(EnsureWritable(dst, /*explicit_open=*/false, issue));

  // Pages are copied as a stripe-wide pipelined window (not booked all at once): the
  // controller uses the destination stripe's full plane parallelism, and the batch boundaries
  // still leave gaps for host reads to interleave. The command acknowledges like a write —
  // once the source data is staged in the zone's write buffer — while cell programs drain
  // behind it.
  const std::uint32_t kCopyWindow = static_cast<std::uint32_t>(dst.units.size());
  const bool audit = ZoneAuditArmed();
  SimTime done_all = issue;
  SimTime ack_all = issue;
  SimTime batch_issue = issue;
  std::uint32_t in_batch = 0;
  for (const CopyRange& r : sources) {
    for (std::uint32_t i = 0; i < r.pages; ++i) {
      Result<ZoneId> src_zone_id = ZoneOfLba(r.lba + i);
      if (!src_zone_id.ok()) {
        return src_zone_id.status();
      }
      Zone& src = zones_[src_zone_id.value().value()];
      const std::uint64_t src_offset = (r.lba.value() + i) % zone_size_pages_;
      if (src_offset >= src.programmed_pages) {
        return Status(ErrorCode::kOutOfRange, "simple-copy source beyond write pointer");
      }
      const PhysAddr src_addr = AddrOf(src, src_offset);
      const PhysAddr dst_addr = AddrOf(dst, dst.write_pointer);
      Result<SimTime> done = flash_.CopyPage(src_addr, dst_addr, batch_issue);
      if (!done.ok()) {
        return done;
      }
      done_all = std::max(done_all, done.value());
      ack_all = std::max(
          ack_all, BufferAck(dst, 1, batch_issue + flash_.timing().page_read, done.value()));
      if (++in_batch >= kCopyWindow) {
        // Next batch issues once this batch's source reads vacate the planes; its programs
        // pipeline behind via per-plane queueing (a copyback pipeline, like firmware GC).
        batch_issue += flash_.timing().page_read;
        in_batch = 0;
      }
      const std::uint64_t pre = audit ? ZoneEntryHash(dst) : 0;
      dst.write_pointer++;
      dst.programmed_pages = dst.write_pointer;
      if (audit) {
        audit_zones_->Replace(done.value(), pre, ZoneEntryHash(dst));
      }
      stats_.pages_copied++;
    }
  }
  if (dst.write_pointer >= dst.capacity_pages) {
    const ZoneState prev = dst.state;
    const std::uint64_t pre = audit ? ZoneEntryHash(dst) : 0;
    ReleaseActive(dst);
    dst.state = ZoneState::kFull;
    if (audit) {
      audit_zones_->Replace(done_all, pre, ZoneEntryHash(dst));
    }
    NoteZoneTransition(dst, prev, ZoneState::kFull, done_all);
  }
  return ack_all;
}

DramUsage ZnsDevice::ComputeDramUsage() const {
  DramUsage u;
  // Zone map: 4 bytes per erasure block (paper §2.2's ZNS model).
  u.mapping_bytes = flash_.geometry().total_blocks() * 4;
  u.gc_metadata_bytes = 0;  // No device GC.
  u.write_buffer_bytes = static_cast<std::uint64_t>(config_.max_active_zones) *
                         config_.zone_write_buffer_pages * flash_.geometry().page_size;
  return u;
}

}  // namespace blockhead
