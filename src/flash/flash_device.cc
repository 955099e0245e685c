#include "src/flash/flash_device.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace blockhead {

FlashDevice::FlashDevice(const FlashConfig& config) : config_(config), rng_(config.seed) {
  assert(config_.geometry.Validate().ok());
  blocks_.resize(config_.geometry.total_blocks());
  plane_busy_.assign(config_.geometry.total_planes(), 0);
  channel_busy_.assign(config_.geometry.channels, 0);
  plane_maintenance_busy_.assign(config_.geometry.total_planes(), MaintMark{});
  plane_busy_series_.assign(config_.geometry.total_planes(), BusySeries{});
  channel_busy_series_.assign(config_.geometry.channels, BusySeries{});
}

FlashDevice::~FlashDevice() { AttachTelemetry(nullptr); }

void FlashDevice::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    // Publish final values, then unhook: the registry may outlive this device.
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_);
    telemetry_->timeline.RemoveSamplerGroup(metric_prefix_);
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    read_latency_ = nullptr;
    program_latency_ = nullptr;
    provenance_ = nullptr;
    ledger_ = nullptr;
    reqpath_ = nullptr;
    audit_blocks_ = nullptr;
    sampler_group_ = -1;
    return;
  }
  metric_prefix_ = std::string(prefix);
  audit_blocks_ = telemetry_->audit.Register(metric_prefix_ + ".blocks");
  read_latency_ = telemetry_->registry.GetHistogram(metric_prefix_ + ".read.latency_ns");
  program_latency_ = telemetry_->registry.GetHistogram(metric_prefix_ + ".program.latency_ns");
  telemetry_->registry.AddProvider(metric_prefix_, [this] { PublishMetrics(); });
  provenance_ = &telemetry_->provenance;
  reqpath_ = &telemetry_->reqpath;
  ledger_ = provenance_->RegisterDevice(metric_prefix_, config_.geometry.total_blocks(),
                                        config_.timing.endurance_cycles,
                                        Bytes{config_.geometry.page_size});

  Timeline& tl = telemetry_->timeline;
  sampler_group_ = tl.AddSamplerGroup(metric_prefix_);
  tl.AddSampler(sampler_group_, metric_prefix_ + ".wear.max_erase_count",
                Timeline::SampleKind::kInstant,
                [this](SimTime) { return static_cast<double>(max_erase_count_); });
  plane_tracks_.clear();
  for (std::size_t i = 0; i < plane_busy_series_.size(); ++i) {
    plane_tracks_.push_back(metric_prefix_ + ".plane" + std::to_string(i));
    tl.AddSampler(sampler_group_, plane_tracks_.back() + ".busy_fraction",
                  Timeline::SampleKind::kRate, [this, i](SimTime t) {
                    return static_cast<double>(plane_busy_series_[i].SettledNsAt(t));
                  });
  }
  for (std::size_t i = 0; i < channel_busy_series_.size(); ++i) {
    tl.AddSampler(sampler_group_,
                  metric_prefix_ + ".channel" + std::to_string(i) + ".busy_fraction",
                  Timeline::SampleKind::kRate, [this, i](SimTime t) {
                    return static_cast<double>(channel_busy_series_[i].SettledNsAt(t));
                  });
  }
}

void FlashDevice::PublishMetrics() {
  MetricRegistry& r = telemetry_->registry;
  const std::string& p = metric_prefix_;
  r.GetCounter(p + ".host_pages_read")->Set(stats_.host_pages_read);
  r.GetCounter(p + ".host_pages_programmed")->Set(stats_.host_pages_programmed);
  r.GetCounter(p + ".internal_pages_read")->Set(stats_.internal_pages_read);
  r.GetCounter(p + ".internal_pages_programmed")->Set(stats_.internal_pages_programmed);
  r.GetCounter(p + ".blocks_erased")->Set(stats_.blocks_erased);
  r.GetCounter(p + ".host_bus_bytes")->Set(stats_.host_bus_bytes);
  r.GetGauge(p + ".write_amplification")
      ->Set(stats_.host_pages_programmed == 0
                ? 1.0
                : static_cast<double>(stats_.total_pages_programmed()) /
                      static_cast<double>(stats_.host_pages_programmed));
  const WearSummary w = ComputeWear();
  r.GetGauge(p + ".wear.min_erase_count")->Set(w.min_erase_count);
  r.GetGauge(p + ".wear.max_erase_count")->Set(w.max_erase_count);
  r.GetGauge(p + ".wear.mean_erase_count")->Set(w.mean_erase_count);
  r.GetGauge(p + ".wear.stddev_erase_count")->Set(w.stddev_erase_count);
  r.GetCounter(p + ".wear.bad_blocks")->Set(w.bad_blocks);
  // Full bucketed erase-count distribution (not just the moments): rebuilt from the current
  // per-block counts on every publish so the snapshot always reflects the live state.
  Histogram* wear = r.GetHistogram(p + ".wear.erase_count");
  wear->Reset();
  for (const BlockState& b : blocks_) {
    wear->Record(b.erase_count);
  }
}

void FlashDevice::NoteMaintenance(std::uint32_t plane_index, SimTime done) {
  MaintMark& mark = plane_maintenance_busy_[plane_index];
  if (done >= mark.done) {
    mark.done = done;
    if (provenance_ != nullptr) {
      mark.cause = provenance_->current_cause();
      mark.layer = provenance_->current_layer();
    }
  }
}

SimTime FlashDevice::MaintenanceOverlap(std::uint32_t plane_index, SimTime issue,
                                        SimTime start) const {
  const SimTime maint = plane_maintenance_busy_[plane_index].done;
  const SimTime capped = std::min(start, maint);
  return capped > issue ? capped - issue : 0;
}

void FlashDevice::ChargeHostSplit(std::uint32_t plane_index, const HostSplit& split) {
  const bool in_request = reqpath_->InRequest();
  std::array<SimTime, kPathSegmentCount> sums{};
  for (const HostInterval& iv : split) {
    sums[static_cast<int>(iv.segment)] += iv.end - iv.begin;
    if (!in_request) {
      continue;
    }
    if (iv.segment != PathSegment::kGcStall) {
      reqpath_->ChargeInterval(iv.begin, iv.end, iv.segment);
    } else if (iv.end > iv.begin) {
      const MaintMark& mark = plane_maintenance_busy_[plane_index];
      reqpath_->ChargeInterference(iv.begin, iv.end, mark.cause, mark.layer,
                                   plane_tracks_[plane_index]);
    }
  }
  telemetry_->tracer.Charge(sums[static_cast<int>(PathSegment::kDeviceQueue)],
                            sums[static_cast<int>(PathSegment::kGcStall)],
                            sums[static_cast<int>(PathSegment::kFlashBusy)]);
}

Status FlashDevice::CheckAddr(const PhysAddr& addr) const {
  const FlashGeometry& g = config_.geometry;
  if (addr.channel.value() >= g.channels || addr.plane.value() >= g.planes_per_channel ||
      addr.block.value() >= g.blocks_per_plane || addr.page.value() >= g.pages_per_block) {
    return Status(ErrorCode::kOutOfRange, "physical address outside geometry");
  }
  return Status::Ok();
}

FlashDevice::BlockState& FlashDevice::BlockAt(const PhysAddr& addr) {
  return blocks_[FlatBlockIndex(config_.geometry, addr)];
}

const FlashDevice::BlockState& FlashDevice::BlockAt(const PhysAddr& addr) const {
  return blocks_[FlatBlockIndex(config_.geometry, addr)];
}

Result<SimTime> FlashDevice::ReadPage(const PhysAddr& addr, SimTime issue,
                                      std::span<std::uint8_t> out, OpClass op_class) {
  SelfProfiler::Scope prof(ProfilerOf(telemetry_), ProfSubsystem::kFlash, ProfOp::kRead);
  BLOCKHEAD_RETURN_IF_ERROR(CheckAddr(addr));
  const BlockState& block = BlockAt(addr);
  if (block.bad) {
    return ErrorCode::kBlockBad;
  }

  const FlashGeometry& g = config_.geometry;
  const std::uint32_t plane_index = PlaneIndex(g, addr.channel, addr.plane);
  SimTime& plane = plane_busy_[plane_index];
  // Cell array read on the plane.
  const SimTime read_start = std::max(issue, plane);
  const SimTime read_done = read_start + config_.timing.page_read;
  plane = read_done;

  SimTime done = read_done;
  if (op_class == OpClass::kHost) {
    // Transfer out over the channel bus.
    SimTime& chan = channel_busy_[addr.channel.value()];
    const SimTime xfer_start = std::max(read_done, chan);
    done = xfer_start + config_.timing.channel_xfer;
    chan = done;
    stats_.host_pages_read++;
    stats_.host_bus_bytes += g.page_size;
    if (telemetry_ != nullptr) {
      // GC stall behind maintenance, plane wait, cell read, channel wait, transfer out.
      const SimTime gc_done = issue + MaintenanceOverlap(plane_index, issue, read_start);
      ChargeHostSplit(plane_index, {{{issue, gc_done, PathSegment::kGcStall},
                                     {gc_done, read_start, PathSegment::kDeviceQueue},
                                     {read_start, read_done, PathSegment::kFlashBusy},
                                     {read_done, xfer_start, PathSegment::kDeviceQueue},
                                     {xfer_start, done, PathSegment::kFlashBusy}}});
      read_latency_->Record(done - issue);
      if (telemetry_->timeline.enabled()) {
        plane_busy_series_[plane_index].Book(read_start, read_done);
        channel_busy_series_[addr.channel.value()].Book(xfer_start, done);
      }
      telemetry_->timeline.AdvanceGroup(sampler_group_, done);
    }
  } else {
    stats_.internal_pages_read++;
    NoteMaintenance(plane_index, read_done);
    if (telemetry_ != nullptr) {
      if (telemetry_->timeline.enabled()) {
        plane_busy_series_[plane_index].Book(read_start, read_done);
      }
      telemetry_->timeline.RecordMaintenance(plane_tracks_[plane_index], "copy_read",
                                             read_start, read_done);
      telemetry_->timeline.AdvanceGroup(sampler_group_, read_done);
    }
  }

  if (!out.empty()) {
    assert(out.size() == g.page_size);
    if (config_.store_data && !block.data.empty() && addr.page.value() < block.next_page) {
      const std::uint8_t* src =
          block.data.data() + static_cast<std::size_t>(addr.page.value()) * g.page_size;
      std::memcpy(out.data(), src, g.page_size);
    } else {
      std::memset(out.data(), 0, g.page_size);
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->selfprof.NoteSimTime(done);
  }
  return done;
}

Result<SimTime> FlashDevice::ProgramPage(const PhysAddr& addr, SimTime issue,
                                         std::span<const std::uint8_t> data, OpClass op_class) {
  SelfProfiler::Scope prof(ProfilerOf(telemetry_), ProfSubsystem::kFlash, ProfOp::kWrite);
  BLOCKHEAD_RETURN_IF_ERROR(CheckAddr(addr));
  BlockState& block = BlockAt(addr);
  if (block.bad) {
    return ErrorCode::kBlockBad;
  }
  if (addr.page.value() != block.next_page) {
    if (addr.page.value() < block.next_page) {
      // Page already programmed since last erase.
      return ErrorCode::kEraseBeforeProgram;
    }
    return ErrorCode::kProgramOrderViolation;
  }

  const FlashGeometry& g = config_.geometry;
  SimTime program_can_start = issue;
  SimTime bus_wait = 0;
  if (op_class == OpClass::kHost) {
    // Data in over the channel bus, then the plane programs the cells.
    SimTime& chan = channel_busy_[addr.channel.value()];
    const SimTime xfer_start = std::max(issue, chan);
    bus_wait = xfer_start - issue;
    program_can_start = xfer_start + config_.timing.channel_xfer;
    chan = program_can_start;
    stats_.host_pages_programmed++;
    stats_.host_bus_bytes += g.page_size;
  } else {
    stats_.internal_pages_programmed++;
  }

  const std::uint32_t plane_index = PlaneIndex(g, addr.channel, addr.plane);
  SimTime& plane = plane_busy_[plane_index];
  const SimTime program_start = std::max(program_can_start, plane);
  const SimTime done = program_start + config_.timing.page_program;
  plane = done;
  if (op_class == OpClass::kHost) {
    if (telemetry_ != nullptr) {
      // Bus wait, transfer in, GC stall behind maintenance, plane wait, cell program.
      const SimTime xfer_start = issue + bus_wait;
      const SimTime gc_done =
          program_can_start + MaintenanceOverlap(plane_index, program_can_start, program_start);
      ChargeHostSplit(plane_index, {{{issue, xfer_start, PathSegment::kDeviceQueue},
                                     {xfer_start, program_can_start, PathSegment::kFlashBusy},
                                     {program_can_start, gc_done, PathSegment::kGcStall},
                                     {gc_done, program_start, PathSegment::kDeviceQueue},
                                     {program_start, done, PathSegment::kFlashBusy}}});
      program_latency_->Record(done - issue);
      if (telemetry_->timeline.enabled()) {
        channel_busy_series_[addr.channel.value()].Book(program_can_start -
                                                    config_.timing.channel_xfer,
                                                program_can_start);
        plane_busy_series_[plane_index].Book(program_start, done);
      }
      telemetry_->timeline.AdvanceGroup(sampler_group_, done);
    }
  } else {
    NoteMaintenance(plane_index, done);
    if (telemetry_ != nullptr) {
      if (telemetry_->timeline.enabled()) {
        plane_busy_series_[plane_index].Book(program_start, done);
      }
      telemetry_->timeline.RecordMaintenance(plane_tracks_[plane_index], "copy_program",
                                             program_start, done);
      telemetry_->timeline.AdvanceGroup(sampler_group_, done);
    }
  }

  if (provenance_ != nullptr) {
    provenance_->RecordProgram(ledger_, op_class == OpClass::kHost, done);
  }

  if (config_.store_data) {
    if (block.data.empty()) {
      block.data.assign(static_cast<std::size_t>(g.pages_per_block) * g.page_size, 0);
    }
    std::uint8_t* dst =
        block.data.data() + static_cast<std::size_t>(addr.page.value()) * g.page_size;
    if (!data.empty()) {
      assert(data.size() <= g.page_size);
      std::memcpy(dst, data.data(), data.size());
      if (data.size() < g.page_size) {
        std::memset(dst + data.size(), 0, g.page_size - data.size());
      }
    } else {
      std::memset(dst, 0, g.page_size);
    }
  }

  const bool audit = audit_blocks_ != nullptr && audit_blocks_->armed();
  const std::uint64_t flat = FlatBlockIndex(g, addr);
  const std::uint64_t pre_program = audit ? BlockEntryHash(flat, block) : 0;
  block.next_page++;
  if (audit) {
    audit_blocks_->Replace(done, pre_program, BlockEntryHash(flat, block));
  }
  if (telemetry_ != nullptr) {
    telemetry_->selfprof.NoteSimTime(done);
  }
  return done;
}

Result<SimTime> FlashDevice::EraseBlock(ChannelId channel, PlaneId plane, BlockId block,
                                        SimTime issue) {
  SelfProfiler::Scope prof(ProfilerOf(telemetry_), ProfSubsystem::kFlash, ProfOp::kErase);
  PhysAddr addr{channel, plane, block, PageId{0}};
  BLOCKHEAD_RETURN_IF_ERROR(CheckAddr(addr));
  BlockState& state = BlockAt(addr);
  if (state.bad) {
    return ErrorCode::kBlockBad;
  }

  const std::uint32_t plane_index = PlaneIndex(config_.geometry, channel, plane);
  SimTime& plane_busy = plane_busy_[plane_index];
  const SimTime start = std::max(issue, plane_busy);
  const SimTime done = start + config_.timing.block_erase;
  plane_busy = done;
  // Erases are reclamation work in both stacks (device GC or host-driven resets): host ops
  // queued behind them count as GC interference.
  NoteMaintenance(plane_index, done);
  if (telemetry_ != nullptr) {
    if (telemetry_->timeline.enabled()) {
      plane_busy_series_[plane_index].Book(start, done);
    }
    telemetry_->timeline.RecordMaintenance(plane_tracks_[plane_index], "erase", start, done);
    telemetry_->events.Append(done, TimelineEventType::kBlockErase, metric_prefix_,
                              "erase plane " + std::to_string(plane_index) + " block " +
                                  std::to_string(block.value()),
                              plane_index, block.value());
    telemetry_->timeline.AdvanceGroup(sampler_group_, done);
  }

  const bool audit = audit_blocks_ != nullptr && audit_blocks_->armed();
  const std::uint64_t flat = FlatBlockIndex(config_.geometry, addr);
  const std::uint64_t pre_erase = audit ? BlockEntryHash(flat, state) : 0;
  state.next_page = 0;
  state.erase_count++;
  if (state.erase_count > max_erase_count_) {
    max_erase_count_ = state.erase_count;
  }
  stats_.blocks_erased++;
  if (provenance_ != nullptr) {
    provenance_->RecordErase(ledger_, done);
  }
  if (!state.data.empty()) {
    std::fill(state.data.begin(), state.data.end(), 0);
  }
  if (state.erase_count >= config_.timing.endurance_cycles ||
      (config_.early_failure_prob > 0.0 && rng_.NextBool(config_.early_failure_prob))) {
    state.bad = true;
  }
  if (audit) {
    audit_blocks_->Replace(done, pre_erase, BlockEntryHash(flat, state));
  }
  if (telemetry_ != nullptr) {
    telemetry_->selfprof.NoteSimTime(done);
  }
  return done;
}

Result<SimTime> FlashDevice::CopyPage(const PhysAddr& src, const PhysAddr& dst, SimTime issue) {
  // Internal read...
  std::vector<std::uint8_t> buf;
  std::span<std::uint8_t> out;
  if (config_.store_data) {
    buf.resize(config_.geometry.page_size);
    out = std::span<std::uint8_t>(buf);
  }
  Result<SimTime> read_done = ReadPage(src, issue, out, OpClass::kInternal);
  if (!read_done.ok()) {
    return read_done;
  }
  // ...then internal program once the data is available.
  return ProgramPage(dst, read_done.value(), buf, OpClass::kInternal);
}

SimTime FlashDevice::PlaneBusyUntil(ChannelId channel, PlaneId plane) const {
  return plane_busy_[PlaneIndex(config_.geometry, channel, plane)];
}

BlockStatus FlashDevice::block_status(ChannelId channel, PlaneId plane, BlockId block) const {
  const PhysAddr addr{channel, plane, block, PageId{0}};
  const BlockState& state = BlockAt(addr);
  return BlockStatus{state.next_page, state.erase_count, state.bad};
}

WearSummary FlashDevice::ComputeWear() const {
  WearSummary w;
  if (blocks_.empty()) {
    return w;
  }
  w.min_erase_count = ~0U;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const BlockState& b : blocks_) {
    w.min_erase_count = std::min(w.min_erase_count, b.erase_count);
    w.max_erase_count = std::max(w.max_erase_count, b.erase_count);
    sum += b.erase_count;
    sum_sq += static_cast<double>(b.erase_count) * b.erase_count;
    if (b.bad) {
      w.bad_blocks++;
    }
  }
  const double n = static_cast<double>(blocks_.size());
  w.mean_erase_count = sum / n;
  const double var = std::max(0.0, sum_sq / n - w.mean_erase_count * w.mean_erase_count);
  w.stddev_erase_count = std::sqrt(var);
  return w;
}

}  // namespace blockhead
