#include "src/telemetry/selfprof/self_profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define BLOCKHEAD_HAVE_MALLINFO2 1
#endif

namespace blockhead {

namespace {

// Current and peak resident set, allocator heap. Best-effort: unsupported platforms report 0
// and the derived metrics stay published (memory rows are informational, never gated).
std::uint64_t ReadRssBytes() {
#if defined(__linux__)
  // /proc/self/statm field 2 is resident pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int matched = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (matched != 2) {
    return 0;
  }
  return static_cast<std::uint64_t>(resident) * 4096u;
#else
  return 0;
#endif
}

std::uint64_t ReadPeakRssBytes() {
#if defined(__linux__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;  // ru_maxrss is KiB on Linux.
#else
  return 0;
#endif
}

std::uint64_t ReadHeapBytes() {
#if defined(BLOCKHEAD_HAVE_MALLINFO2)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks);
#else
  return 0;
#endif
}

}  // namespace

const char* ProfSubsystemName(ProfSubsystem sub) {
  switch (sub) {
    case ProfSubsystem::kFlash:
      return "flash";
    case ProfSubsystem::kFtl:
      return "ftl";
    case ProfSubsystem::kZns:
      return "zns";
    case ProfSubsystem::kHostFtl:
      return "hostftl";
    case ProfSubsystem::kZoneFile:
      return "zonefile";
    case ProfSubsystem::kCache:
      return "cache";
    case ProfSubsystem::kKv:
      return "kv";
    case ProfSubsystem::kFleet:
      return "fleet";
    case ProfSubsystem::kSched:
      return "sched";
    case ProfSubsystem::kTelemetry:
      return "telemetry";
    case ProfSubsystem::kBench:
      return "bench";
    case ProfSubsystem::kCount:
      break;
  }
  return "unknown";
}

const char* ProfOpName(ProfOp op) {
  switch (op) {
    case ProfOp::kRead:
      return "read";
    case ProfOp::kWrite:
      return "write";
    case ProfOp::kAppend:
      return "append";
    case ProfOp::kErase:
      return "erase";
    case ProfOp::kReset:
      return "reset";
    case ProfOp::kGc:
      return "gc";
    case ProfOp::kCompaction:
      return "compaction";
    case ProfOp::kEviction:
      return "eviction";
    case ProfOp::kFlush:
      return "flush";
    case ProfOp::kMigration:
      return "migration";
    case ProfOp::kDispatch:
      return "dispatch";
    case ProfOp::kMaintenance:
      return "maintenance";
    case ProfOp::kSinkRender:
      return "sink_render";
    case ProfOp::kOther:
      return "other";
    case ProfOp::kCount:
      break;
  }
  return "unknown";
}

void SelfProfiler::Enable(const SelfProfConfig& config) {
  enabled_ = true;
  config_ = config;
  if (const char* spin = std::getenv("BLOCKHEAD_SELFPROF_SPIN_FLASH_NS")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(spin, &end, 10);
    if (end != spin) {
      config_.spin_flash_ns = v;
    }
  }
  cells_.fill(ProfCell{});
  slices_.clear();
  slices_dropped_ = 0;
  total_events_ = 0;
  max_sim_time_ = 0;
  top_ = nullptr;
  epoch_ns_ = WallNowNs();
}

void SelfProfiler::Scope::Begin(SelfProfiler* prof, ProfSubsystem sub, ProfOp op) {
  prof_ = prof;
  sub_ = sub;
  op_ = op;
  parent_ = prof->top_;
  prof->top_ = this;
  start_ns_ = WallNowNs();
}

void SelfProfiler::Scope::End() {
  std::uint64_t now = WallNowNs();
  // Deliberate-slowdown hook: inflate flash-subsystem scopes in wall time only (SimTime is
  // untouched), so the perf gate's failure path can be exercised deterministically.
  if (sub_ == ProfSubsystem::kFlash && prof_->config_.spin_flash_ns > 0) {
    const std::uint64_t until = start_ns_ + prof_->config_.spin_flash_ns;
    while (now < until) {
      now = WallNowNs();
    }
  }
  const std::uint64_t elapsed = now > start_ns_ ? now - start_ns_ : 0;
  ProfCell& cell = prof_->cells_[CellIndex(sub_, op_)];
  cell.count++;
  cell.total_ns += elapsed;
  cell.self_ns += elapsed > child_ns_ ? elapsed - child_ns_ : 0;
  prof_->total_events_++;
  if (parent_ != nullptr) {
    parent_->child_ns_ += elapsed;
  }
  prof_->top_ = parent_;
  if (elapsed >= prof_->config_.min_slice_ns) {
    prof_->RecordSlice(sub_, op_, start_ns_, now);
  }
  prof_ = nullptr;
}

void SelfProfiler::RecordSlice(ProfSubsystem sub, ProfOp op, std::uint64_t begin_ns,
                               std::uint64_t end_ns) {
  if (config_.max_slices == 0) {
    slices_dropped_++;
    return;
  }
  if (slices_.size() >= config_.max_slices) {
    slices_.pop_front();
    slices_dropped_++;
  }
  HostSlice s;
  s.begin_ns = begin_ns > epoch_ns_ ? begin_ns - epoch_ns_ : 0;
  s.end_ns = end_ns > epoch_ns_ ? end_ns - epoch_ns_ : 0;
  s.sub = sub;
  s.op = op;
  slices_.push_back(s);
}

SelfProfSample SelfProfiler::Sample() const {
  SelfProfSample s;
  const std::uint64_t now = WallNowNs();
  s.wall_elapsed_ns = now > epoch_ns_ ? now - epoch_ns_ : 0;
  s.total_events = total_events_;
  for (std::size_t op = 0; op < static_cast<std::size_t>(ProfOp::kCount); ++op) {
    s.flash_events +=
        cells_[CellIndex(ProfSubsystem::kFlash, static_cast<ProfOp>(op))].count;
  }
  const double wall_sec = static_cast<double>(s.wall_elapsed_ns) * 1e-9;
  if (wall_sec > 0.0) {
    s.events_per_sec = static_cast<double>(s.total_events) / wall_sec;
  }
  if (s.flash_events > 0) {
    s.ns_per_simulated_op =
        static_cast<double>(s.wall_elapsed_ns) / static_cast<double>(s.flash_events);
  }
  if (s.wall_elapsed_ns > 0) {
    s.sim_speedup =
        static_cast<double>(max_sim_time_) / static_cast<double>(s.wall_elapsed_ns);
  }
  s.rss_bytes = ReadRssBytes();
  s.peak_rss_bytes = ReadPeakRssBytes();
  s.heap_bytes = ReadHeapBytes();
  s.cells = cells_;
  return s;
}

void SelfProfiler::PublishTo(MetricRegistry& registry) const {
  const SelfProfSample s = Sample();
  const std::string p = kHostMetricPrefix;
  registry.GetCounter(p + "wall_elapsed_ns")->Set(s.wall_elapsed_ns);
  registry.GetCounter(p + "total_events")->Set(s.total_events);
  registry.GetCounter(p + "flash_events")->Set(s.flash_events);
  registry.GetGauge(p + "events_per_sec")->Set(s.events_per_sec);
  registry.GetGauge(p + "ns_per_simulated_op")->Set(s.ns_per_simulated_op);
  registry.GetGauge(p + "sim_speedup")->Set(s.sim_speedup);
  registry.GetCounter(p + "rss_bytes")->Set(s.rss_bytes);
  registry.GetCounter(p + "peak_rss_bytes")->Set(s.peak_rss_bytes);
  registry.GetCounter(p + "heap_bytes")->Set(s.heap_bytes);
  registry.GetCounter(p + "trace_slices_dropped")->Set(slices_dropped_);
  PublishCells(registry, s.cells);
}

void SelfProfiler::PublishCells(MetricRegistry& registry, const ProfCells& cells) {
  const std::string p = kHostMetricPrefix;
  for (std::size_t sub = 0; sub < static_cast<std::size_t>(ProfSubsystem::kCount); ++sub) {
    std::uint64_t sub_self = 0;
    std::uint64_t sub_count = 0;
    for (std::size_t op = 0; op < static_cast<std::size_t>(ProfOp::kCount); ++op) {
      const ProfCell& c =
          cells[CellIndex(static_cast<ProfSubsystem>(sub), static_cast<ProfOp>(op))];
      if (c.count == 0) {
        continue;
      }
      sub_self += c.self_ns;
      sub_count += c.count;
      const std::string cell_prefix = p + ProfSubsystemName(static_cast<ProfSubsystem>(sub)) +
                                      "." + ProfOpName(static_cast<ProfOp>(op)) + ".";
      registry.GetCounter(cell_prefix + "count")->Set(c.count);
      registry.GetCounter(cell_prefix + "wall_ns")->Set(c.total_ns);
      registry.GetCounter(cell_prefix + "self_ns")->Set(c.self_ns);
    }
    if (sub_count > 0) {
      registry
          .GetCounter(p + ProfSubsystemName(static_cast<ProfSubsystem>(sub)) + ".self_ns")
          ->Set(sub_self);
    }
  }
}

}  // namespace blockhead
