#include "src/ftl/conventional_ssd.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace blockhead {

namespace {

// Decomposes a flat block index into its (channel, plane, block) coordinates.
PhysAddr BlockAddrFromFlat(const FlashGeometry& g, std::uint64_t flat_block) {
  PhysAddr a;
  a.page = PageId{0};
  a.block = BlockId{static_cast<std::uint32_t>(flat_block % g.blocks_per_plane)};
  const std::uint64_t plane_flat = flat_block / g.blocks_per_plane;
  a.plane = PlaneId{static_cast<std::uint32_t>(plane_flat % g.planes_per_channel)};
  a.channel = ChannelId{static_cast<std::uint32_t>(plane_flat / g.planes_per_channel)};
  return a;
}

}  // namespace

ConventionalSsd::ConventionalSsd(const FlashConfig& flash_config, const FtlConfig& ftl_config)
    : flash_(flash_config), config_(ftl_config) {
  const FlashGeometry& g = flash_.geometry();
  const std::uint64_t total_pages = g.total_pages();
  const std::uint64_t reserve_pages = static_cast<std::uint64_t>(
                                          config_.min_reserve_blocks_per_plane) *
                                      g.total_planes() * g.pages_per_block;
  const double op = std::max(0.0, config_.op_fraction);
  const std::uint64_t op_pages =
      static_cast<std::uint64_t>(static_cast<double>(total_pages) / (1.0 + op));
  logical_pages_ = std::min(op_pages, total_pages - reserve_pages);

  gc_trigger_blocks_ = config_.gc_trigger_free_blocks != 0 ? config_.gc_trigger_free_blocks
                                                           : 2 * g.total_planes();
  gc_target_blocks_ = config_.gc_free_target_blocks != 0 ? config_.gc_free_target_blocks
                                                         : gc_trigger_blocks_ + g.total_planes();

  l2p_.assign(logical_pages_, kUnmapped);
  p2l_.assign(total_pages, kUnmapped);
  block_meta_.assign(g.total_blocks(), BlockMeta{});
  config_.num_streams = std::max<std::uint32_t>(1, config_.num_streams);
  planes_.resize(g.total_planes());
  for (std::uint32_t pl = 0; pl < g.total_planes(); ++pl) {
    planes_[pl].free_blocks.reserve(g.blocks_per_plane);
    for (std::uint32_t b = 0; b < g.blocks_per_plane; ++b) {
      planes_[pl].free_blocks.push_back(b);
    }
    planes_[pl].host_frontiers.assign(config_.num_streams, kNoBlock);
  }
  next_host_plane_.assign(config_.num_streams, 0);
  free_block_count_ = g.total_blocks();

  if (const char* env = std::getenv("BLOCKHEAD_AUDIT_PERTURB_GC_AT");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env) {
      perturb_gc_at_ = v;
      perturb_pending_ = true;
    }
  }
}

bool ConventionalSsd::PageValid(std::uint64_t ppn) const {
  const std::uint64_t lpn = p2l_[ppn];
  return lpn != kUnmapped && l2p_[lpn] == ppn;
}

void ConventionalSsd::InvalidatePage(std::uint64_t lpn, SimTime now) {
  const std::uint64_t old = l2p_[lpn];
  if (old == kUnmapped) {
    return;
  }
  const std::uint64_t block = old / flash_.geometry().pages_per_block;
  assert(block_meta_[block].valid_pages > 0);
  block_meta_[block].valid_pages--;
  p2l_[old] = kUnmapped;
  l2p_[lpn] = kUnmapped;
  if (audit_l2p_ != nullptr && audit_l2p_->armed()) {
    audit_l2p_->Remove(now, L2pEntryHash(lpn, old));
  }
}

std::uint32_t ConventionalSsd::TakeFreeBlock(std::uint32_t plane_index) {
  PlaneState& plane = planes_[plane_index];
  assert(!plane.free_blocks.empty());
  std::size_t pick = plane.free_blocks.size() - 1;
  if (config_.wear_leveling) {
    // Least-worn free block, to spread erases.
    const FlashGeometry& g = flash_.geometry();
    const ChannelId channel{plane_index / g.planes_per_channel};
    const PlaneId pl{plane_index % g.planes_per_channel};
    std::uint32_t best_wear = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < plane.free_blocks.size(); ++i) {
      const std::uint32_t wear =
          flash_.block_status(channel, pl, BlockId{plane.free_blocks[i]}).erase_count;
      if (wear < best_wear) {
        best_wear = wear;
        pick = i;
      }
    }
  }
  const std::uint32_t block = plane.free_blocks[pick];
  plane.free_blocks[pick] = plane.free_blocks.back();
  plane.free_blocks.pop_back();
  free_block_count_--;
  return block;
}

Result<PhysAddr> ConventionalSsd::NextSlot(SimTime issue, bool gc_write,
                                           std::uint32_t stream) {
  const FlashGeometry& g = flash_.geometry();
  std::uint32_t& cursor = gc_write ? next_gc_plane_ : next_host_plane_[stream];
  const std::uint32_t planes = g.total_planes();

  for (std::uint32_t attempt = 0; attempt < planes; ++attempt) {
    const std::uint32_t plane_index = (cursor + attempt) % planes;
    PlaneState& plane = planes_[plane_index];
    std::uint32_t& frontier = gc_write ? plane.gc_frontier : plane.host_frontiers[stream];
    const ChannelId channel{plane_index / g.planes_per_channel};
    const PlaneId pl{plane_index % g.planes_per_channel};

    // Retire a full frontier.
    if (frontier != kNoBlock &&
        flash_.block_status(channel, pl, BlockId{frontier}).next_page >= g.pages_per_block) {
      const std::uint64_t flat = static_cast<std::uint64_t>(plane_index) * g.blocks_per_plane +
                                 frontier;
      block_meta_[flat].open = false;
      block_meta_[flat].last_write = issue;
      frontier = kNoBlock;
    }
    if (frontier == kNoBlock) {
      if (plane.free_blocks.empty()) {
        continue;  // Try another plane.
      }
      frontier = TakeFreeBlock(plane_index);
      const std::uint64_t flat = static_cast<std::uint64_t>(plane_index) * g.blocks_per_plane +
                                 frontier;
      block_meta_[flat].open = true;
      if (flash_.block_status(channel, pl, BlockId{frontier}).bad) {
        // A free-pool block can have gone bad via early failure on its last erase; drop it.
        block_meta_[flat].open = false;
        frontier = kNoBlock;
        continue;
      }
    }

    cursor = (plane_index + 1) % planes;
    PhysAddr addr;
    addr.channel = channel;
    addr.plane = pl;
    addr.block = BlockId{frontier};
    addr.page = PageId{flash_.block_status(channel, pl, BlockId{frontier}).next_page};
    return addr;
  }
  return ErrorCode::kNoFreeBlocks;
}

Result<SimTime> ConventionalSsd::AppendPage(std::uint64_t lpn, SimTime issue,
                                            std::span<const std::uint8_t> data, bool gc_write,
                                            std::uint32_t stream) {
  Result<PhysAddr> slot = NextSlot(issue, gc_write, stream);
  if (!slot.ok()) {
    return slot.status();
  }
  const PhysAddr addr = slot.value();
  Result<SimTime> done = flash_.ProgramPage(addr, issue, data,
                                            gc_write ? OpClass::kInternal : OpClass::kHost);
  if (!done.ok()) {
    return done;
  }
  InvalidatePage(lpn, done.value());
  const FlashGeometry& g = flash_.geometry();
  const std::uint64_t ppn = FlatPageIndex(g, addr).value();
  const std::uint64_t block = ppn / g.pages_per_block;
  l2p_[lpn] = ppn;
  p2l_[ppn] = lpn;
  if (audit_l2p_ != nullptr && audit_l2p_->armed()) {
    audit_l2p_->Insert(done.value(), L2pEntryHash(lpn, ppn));
  }
  block_meta_[block].valid_pages++;
  block_meta_[block].last_write = done.value();
  return done;
}

std::uint64_t ConventionalSsd::PickVictim(SimTime now, bool wear_migration) {
  const FlashGeometry& g = flash_.geometry();
  const std::uint32_t ppb = g.pages_per_block;
  std::uint64_t best = kUnmapped;
  double best_score = -1.0;
  // Audit divergence-injection hook (see perturb_gc_at_): when armed, track the runner-up
  // and return it instead of the winner, once. The greedy dead-block shortcut is skipped in
  // that one scan so a runner-up exists to return.
  const bool perturb = perturb_pending_ && !wear_migration && now >= perturb_gc_at_;
  std::uint64_t second = kUnmapped;
  double second_score = -1.0;

  // Scan from a rotating start: a fixed scan order breaks score ties toward the lowest block
  // indices, which concentrates victims (and their serialized page reads) on plane 0.
  const std::uint64_t scan_start = victim_scan_cursor_;
  victim_scan_cursor_ = (victim_scan_cursor_ + g.pages_per_block + 1) % block_meta_.size();
  for (std::uint64_t i = 0; i < block_meta_.size(); ++i) {
    const std::uint64_t flat = (scan_start + i) % block_meta_.size();
    const BlockMeta& meta = block_meta_[flat];
    if (meta.open) {
      continue;
    }
    const PhysAddr addr = BlockAddrFromFlat(g, flat);
    const BlockStatus status = flash_.block_status(addr.channel, addr.plane, addr.block);
    if (status.bad || status.next_page < ppb) {
      continue;  // Only full blocks are victims; partial blocks are free-pool or frontiers.
    }

    if (!perturb && !wear_migration && config_.victim_policy == GcVictimPolicy::kGreedy &&
        meta.valid_pages == 0) {
      return flat;  // A fully dead block is always the greedy optimum.
    }
    double score = 0.0;
    if (wear_migration) {
      // Least-worn full block: migrating it lets its (presumably cold) data move so the block
      // can absorb erases.
      score = 1.0 / (1.0 + static_cast<double>(status.erase_count));
    } else if (config_.victim_policy == GcVictimPolicy::kGreedy) {
      score = static_cast<double>(ppb - meta.valid_pages);
    } else {
      const double u = static_cast<double>(meta.valid_pages) / static_cast<double>(ppb);
      if (u == 0.0) {
        score = std::numeric_limits<double>::max();
      } else {
        const double age = static_cast<double>(now > meta.last_write ? now - meta.last_write : 0) +
                           1.0;
        score = (1.0 - u) / (2.0 * u) * age;
      }
    }
    if (score > best_score) {
      second_score = best_score;
      second = best;
      best_score = score;
      best = flat;
    } else if (score > second_score) {
      second_score = score;
      second = flat;
    }
  }

  if (perturb && second != kUnmapped) {
    perturb_pending_ = false;
    return second;
  }
  if (!wear_migration && best != kUnmapped &&
      block_meta_[best].valid_pages >= ppb) {
    // All full blocks are fully valid: GC would gain nothing.
    return kUnmapped;
  }
  return best;
}

Result<SimTime> ConventionalSsd::GcCycle(SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kFtl, ProfOp::kGc);
  const bool wear_migration =
      config_.wear_leveling && config_.wear_migrate_interval != 0 &&
      ++gc_cycles_since_wear_check_ % config_.wear_migrate_interval == 0;
  std::uint64_t victim = PickVictim(now, wear_migration);
  if (victim == kUnmapped && wear_migration) {
    victim = PickVictim(now, false);
  }
  if (victim == kUnmapped) {
    return ErrorCode::kNoFreeBlocks;
  }

  // Everything this cycle programs/erases is device reclaim work, not host data.
  WriteProvenance::CauseScope cause(
      ProvenanceOf(telemetry_),
      wear_migration ? WriteCause::kWearMigration : WriteCause::kDeviceGC, StackLayer::kFtl);

  const FlashGeometry& g = flash_.geometry();
  const PhysAddr victim_addr = BlockAddrFromFlat(g, victim);
  const std::uint64_t first_ppn = victim * g.pages_per_block;
  SimTime last_done = now;
  const std::uint64_t copied_before = stats_.gc_pages_copied;
  if (telemetry_ != nullptr) {
    const char* policy = wear_migration ? "wear_migration"
                         : config_.victim_policy == GcVictimPolicy::kGreedy ? "greedy"
                                                                            : "cost_benefit";
    telemetry_->events.Append(now, TimelineEventType::kGcVictim, metric_prefix_ + ".ftl",
                              std::string("victim block ") + std::to_string(victim) +
                                  " valid " + std::to_string(block_meta_[victim].valid_pages) +
                                  " policy " + policy,
                              victim, block_meta_[victim].valid_pages);
  }

  // Copy valid pages forward (device-internal: no host-bus traffic). Copies run as a
  // plane-wide pipelined window: the FTL is bandwidth-greedy for internal moves (it must keep
  // reclaim ahead of host consumption), while the batch boundary still gives host I/O points
  // to interleave.
  const std::uint32_t kGcCopyWindow = g.total_planes();
  SimTime batch_issue = now;
  std::uint32_t in_batch = 0;
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    const std::uint64_t ppn = first_ppn + p;
    if (!PageValid(ppn)) {
      continue;
    }
    const std::uint64_t lpn = p2l_[ppn];
    Result<PhysAddr> slot = NextSlot(now, /*gc_write=*/true, /*stream=*/0);
    if (!slot.ok()) {
      return slot.status();
    }
    PhysAddr src = victim_addr;
    src.page = PageId{p};
    if (++in_batch >= kGcCopyWindow) {
      // The next batch starts when the victim plane finishes this batch's page reads (the
      // cadence-setting resource); its programs overlap the next batch's reads, as a real
      // copyback pipeline does.
      batch_issue += static_cast<SimTime>(kGcCopyWindow) * flash_.timing().page_read;
      in_batch = 0;
    }
    Result<SimTime> done = flash_.CopyPage(src, slot.value(), batch_issue);
    if (!done.ok()) {
      return done;
    }
    last_done = std::max(last_done, done.value());
    // Remap.
    const std::uint64_t new_ppn = FlatPageIndex(g, slot.value()).value();
    const std::uint64_t new_block = new_ppn / g.pages_per_block;
    l2p_[lpn] = new_ppn;
    p2l_[new_ppn] = lpn;
    p2l_[ppn] = kUnmapped;
    if (audit_l2p_ != nullptr && audit_l2p_->armed()) {
      audit_l2p_->Replace(done.value(), L2pEntryHash(lpn, ppn), L2pEntryHash(lpn, new_ppn));
    }
    block_meta_[victim].valid_pages--;
    block_meta_[new_block].valid_pages++;
    block_meta_[new_block].last_write = done.value();
    stats_.gc_pages_copied++;
  }
  assert(block_meta_[victim].valid_pages == 0);

  Result<SimTime> erased =
      flash_.EraseBlock(victim_addr.channel, victim_addr.plane, victim_addr.block, last_done);
  if (!erased.ok()) {
    return erased;
  }
  // Clear any stale reverse mappings (invalid pages).
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    p2l_[first_ppn + p] = kUnmapped;
  }
  stats_.gc_runs++;
  if (wear_migration) {
    stats_.wear_migrations++;
  }
  if (!flash_.block_status(victim_addr.channel, victim_addr.plane, victim_addr.block).bad) {
    const std::uint32_t plane_index = PlaneIndex(g, victim_addr.channel, victim_addr.plane);
    planes_[plane_index].free_blocks.push_back(victim_addr.block.value());
    free_block_count_++;
    stats_.gc_blocks_reclaimed++;
  }
  if (telemetry_ != nullptr) {
    const std::uint64_t copied = stats_.gc_pages_copied - copied_before;
    telemetry_->events.Append(erased.value(), TimelineEventType::kGcCycle,
                              metric_prefix_ + ".ftl",
                              "cycle done block " + std::to_string(victim) + " copied " +
                                  std::to_string(copied),
                              victim, copied);
    telemetry_->timeline.RecordMaintenance(metric_prefix_ + ".ftl.gc", "gc_cycle", now,
                                           erased.value());
    telemetry_->timeline.AdvanceGroup(sampler_group_, erased.value());
  }
  return erased;
}

SimTime ConventionalSsd::MaybeForegroundGc(SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kFtl, ProfOp::kGc);
  if (free_block_count_ >= gc_trigger_blocks_) {
    return now;
  }
  stats_.foreground_gc_stalls++;
  // Incremental foreground GC: a bounded number of cycles per triggering write, so
  // reclamation interleaves with host I/O instead of forming giant convoys. Two victims are
  // cleaned concurrently (issued at the same time, on different planes) — single-victim
  // cleaning is bottlenecked by the victim plane's serialized page reads and cannot keep up
  // with high-WA workloads. Only when the pool is nearly exhausted does the FTL loop
  // synchronously (correctness backstop).
  SimTime last = now;
  for (int parallel = 0; parallel < 2; ++parallel) {
    Result<SimTime> done = GcCycle(now);
    if (!done.ok()) {
      break;
    }
    last = std::max(last, done.value());
    if (free_block_count_ >= gc_trigger_blocks_) {
      break;
    }
  }
  const std::uint64_t emergency = std::max<std::uint64_t>(4, planes_.size() / 4);
  while (free_block_count_ < emergency) {
    Result<SimTime> done = GcCycle(last);
    if (!done.ok()) {
      break;
    }
    last = done.value();
  }
  return last;
}

std::uint32_t ConventionalSsd::RunBackgroundGc(SimTime now, std::uint32_t max_cycles) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kFtl, ProfOp::kGc);
  std::uint32_t ran = 0;
  while (ran < max_cycles && free_block_count_ < gc_target_blocks_) {
    Result<SimTime> done = GcCycle(now);
    if (!done.ok()) {
      break;
    }
    now = done.value();
    ++ran;
  }
  return ran;
}

SimTime ConventionalSsd::BufferAck(SimTime data_in, SimTime program_done) {
  inflight_program_completions_.push_back(program_done);
  if (inflight_program_completions_.size() <= config_.write_buffer_pages) {
    return data_in;  // Buffer slot immediately available.
  }
  const SimTime slot_free = inflight_program_completions_.front();
  inflight_program_completions_.pop_front();
  return std::max(data_in, slot_free);
}

Result<SimTime> ConventionalSsd::WriteBlocks(Lba lba, std::uint32_t count, SimTime issue,
                                             std::span<const std::uint8_t> data) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kFtl, ProfOp::kWrite);
  return WriteBlocksStream(lba, count, /*stream=*/0, issue, data);
}

ConventionalSsd::~ConventionalSsd() { AttachTelemetry(nullptr); }

void ConventionalSsd::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_ + ".ftl");
    telemetry_->timeline.RemoveSamplerGroup(metric_prefix_ + ".ftl");
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    flash_.AttachTelemetry(nullptr);
    audit_l2p_ = nullptr;
    sampler_group_ = -1;
    write_span_ = nullptr;
    read_span_ = nullptr;
    return;
  }
  metric_prefix_ = std::string(prefix);
  write_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".ftl.write");
  read_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".ftl.read");
  audit_l2p_ = telemetry_->audit.Register(metric_prefix_ + ".ftl.l2p");
  flash_.AttachTelemetry(telemetry_, metric_prefix_ + ".flash");
  telemetry_->registry.AddProvider(metric_prefix_ + ".ftl", [this] { PublishMetrics(); });

  Timeline& tl = telemetry_->timeline;
  sampler_group_ = tl.AddSamplerGroup(metric_prefix_ + ".ftl");
  tl.AddSampler(sampler_group_, metric_prefix_ + ".ftl.free_blocks",
                Timeline::SampleKind::kInstant,
                [this](SimTime) { return static_cast<double>(free_block_count_); });
  tl.AddSampler(sampler_group_, metric_prefix_ + ".ftl.write_amplification",
                Timeline::SampleKind::kInstant,
                [this](SimTime) { return WriteAmplification(); });
}

void ConventionalSsd::PublishMetrics() {
  MetricRegistry& r = telemetry_->registry;
  const std::string p = metric_prefix_ + ".ftl";
  r.GetCounter(p + ".host_pages_written")->Set(stats_.host_pages_written);
  r.GetCounter(p + ".host_pages_read")->Set(stats_.host_pages_read);
  r.GetCounter(p + ".pages_trimmed")->Set(stats_.pages_trimmed);
  r.GetCounter(p + ".gc.runs")->Set(stats_.gc_runs);
  r.GetCounter(p + ".gc.pages_moved")->Set(stats_.gc_pages_copied);
  r.GetCounter(p + ".gc.blocks_reclaimed")->Set(stats_.gc_blocks_reclaimed);
  r.GetCounter(p + ".gc.foreground_stalls")->Set(stats_.foreground_gc_stalls);
  r.GetCounter(p + ".wear_migrations")->Set(stats_.wear_migrations);
  r.GetGauge(p + ".write_amplification")->Set(WriteAmplification());
  r.GetGauge(p + ".free_blocks")->Set(static_cast<double>(FreeBlocks()));
  const DramUsage dram = ComputeDramUsage();
  r.GetGauge(p + ".dram.mapping_bytes")->Set(static_cast<double>(dram.mapping_bytes));
  r.GetGauge(p + ".dram.gc_metadata_bytes")->Set(static_cast<double>(dram.gc_metadata_bytes));
  r.GetGauge(p + ".dram.write_buffer_bytes")->Set(static_cast<double>(dram.write_buffer_bytes));
  r.GetGauge(p + ".dram.total_bytes")->Set(static_cast<double>(dram.total()));
}

Result<SimTime> ConventionalSsd::WriteBlocksStream(Lba lba, std::uint32_t count,
                                                   std::uint32_t stream, SimTime issue,
                                                   std::span<const std::uint8_t> data) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kFtl, ProfOp::kWrite);
  stream = std::min(stream, config_.num_streams - 1);
  if (lba.value() + count > logical_pages_) {
    return ErrorCode::kOutOfRange;
  }
  const std::uint32_t page_size = flash_.geometry().page_size;
  if (!data.empty() && data.size() != static_cast<std::size_t>(count) * page_size) {
    return ErrorCode::kInvalidArgument;
  }

  Tracer::Span span = Tracer::Start(write_span_, issue);
  // Foreground host op: own the request-path measurement unless internal work (a CauseScope)
  // or an outer layer already does. Foreground GC needs no explicit charge here — it runs as
  // internal flash ops whose maintenance marks the host programs below bill as GC stall.
  RequestPathLedger::RequestScope req_scope(ForegroundReqPathOf(telemetry_),
                                            RequestContext{stream, ReqOp::kWrite}, issue);
  SimTime ack = issue;
  for (std::uint32_t i = 0; i < count; ++i) {
    MaybeForegroundGc(issue);
    std::span<const std::uint8_t> page_data;
    if (!data.empty()) {
      page_data = data.subspan(static_cast<std::size_t>(i) * page_size, page_size);
    }
    Result<SimTime> done =
        AppendPage(lba.value() + i, issue, page_data, /*gc_write=*/false, stream);
    if (!done.ok()) {
      return done;
    }
    stats_.host_pages_written++;
    const SimTime data_in = issue + flash_.timing().channel_xfer;
    ack = std::max(ack, BufferAck(data_in, done.value()));
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, ack);
  }
  span.End(ack);
  req_scope.Complete(ack);
  return ack;
}

Result<SimTime> ConventionalSsd::ReadBlocks(Lba lba, std::uint32_t count, SimTime issue,
                                            std::span<std::uint8_t> out) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kFtl, ProfOp::kRead);
  if (lba.value() + count > logical_pages_) {
    return ErrorCode::kOutOfRange;
  }
  const std::uint32_t page_size = flash_.geometry().page_size;
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
    const std::uint64_t ppn = l2p_[lba.value() + i];
    stats_.host_pages_read++;
    if (ppn == kUnmapped) {
      // Never-written LBA: served from the controller without touching flash.
      if (!page_out.empty()) {
        std::memset(page_out.data(), 0, page_out.size());
      }
      done_all = std::max(done_all, issue + flash_.timing().channel_xfer);
      continue;
    }
    Result<SimTime> done = flash_.ReadPage(AddrFromFlatPage(flash_.geometry(), Ppa{ppn}),
                                           issue, page_out, OpClass::kHost);
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

Result<SimTime> ConventionalSsd::TrimBlocks(Lba lba, std::uint32_t count, SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kFtl, ProfOp::kOther);
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
  const SimTime done = issue + flash_.timing().channel_xfer;
  req_scope.Complete(done);
  return done;
}

double ConventionalSsd::WriteAmplification() const {
  const FlashStats& s = flash_.stats();
  if (s.host_pages_programmed == 0) {
    return 1.0;
  }
  return static_cast<double>(s.total_pages_programmed()) /
         static_cast<double>(s.host_pages_programmed);
}

DramUsage ConventionalSsd::ComputeDramUsage() const {
  const FlashGeometry& g = flash_.geometry();
  DramUsage u;
  u.mapping_bytes = logical_pages_ * 4;  // 4 B per page-mapping entry (paper §2.2).
  u.gc_metadata_bytes = g.total_pages() * 4 /* reverse map */ + g.total_blocks() * 4 /* counts */;
  u.write_buffer_bytes = static_cast<std::uint64_t>(config_.write_buffer_pages) * g.page_size;
  return u;
}

std::uint64_t ConventionalSsd::FreeBlocks() const { return free_block_count_; }

Status ConventionalSsd::CheckConsistency() const {
  const FlashGeometry& g = flash_.geometry();
  for (std::uint64_t lpn = 0; lpn < logical_pages_; ++lpn) {
    const std::uint64_t ppn = l2p_[lpn];
    if (ppn == kUnmapped) {
      continue;
    }
    if (ppn >= g.total_pages() || p2l_[ppn] != lpn) {
      return Status(ErrorCode::kCorruption, "l2p/p2l mismatch");
    }
  }
  std::vector<std::uint32_t> valid(block_meta_.size(), 0);
  for (std::uint64_t ppn = 0; ppn < g.total_pages(); ++ppn) {
    if (PageValid(ppn)) {
      valid[ppn / g.pages_per_block]++;
    }
  }
  for (std::uint64_t b = 0; b < block_meta_.size(); ++b) {
    if (valid[b] != block_meta_[b].valid_pages) {
      return Status(ErrorCode::kCorruption, "valid-page counter drift");
    }
  }
  return Status::Ok();
}

}  // namespace blockhead
