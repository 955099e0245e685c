#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>

#include "src/core/matched_pair.h"
#include "src/hostftl/host_ftl.h"
#include "src/kv/block_env.h"
#include "src/kv/kv_store.h"
#include "src/kv/ycsb.h"
#include "src/telemetry/sink.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"
#include "src/zonefile/zone_file_system.h"

namespace perfbench {

using blockhead::BlockDevice;
using blockhead::ConventionalSsd;
using blockhead::Env;
using blockhead::FlashStats;
using blockhead::HostFtlBlockDevice;
using blockhead::IoRequest;
using blockhead::IoType;
using blockhead::KvStore;
using blockhead::Lba;
using blockhead::MatchedConfig;
using blockhead::ProfOp;
using blockhead::ProfSubsystem;
using blockhead::Result;
using blockhead::SelfProfiler;
using blockhead::SimTime;
using blockhead::Telemetry;
using blockhead::ZnsDevice;
using blockhead::ZoneFileSystem;

namespace {

// ---------------------------------------------------------------------------------------------
// Sizes. A rep's measured phase is a fixed number of ops, so its SimTime outcome is a pure
// function of (workload, seed, scale); --seconds only decides how many reps run. Full sizes
// give at least 1,000 timing windows per rep, so a window p99 has 10 samples beyond it.

struct BlockSizes {
  std::uint32_t blocks_per_plane;
  std::uint64_t ops;
  std::uint32_t window_ops;
};

struct KvSizes {
  std::uint64_t records;
  std::uint64_t ops;
  std::uint32_t window_ops;
};

constexpr BlockSizes kConvFull{128, 120000, 100};
constexpr BlockSizes kConvSmoke{16, 12000, 16};
constexpr BlockSizes kEmulFull{128, 400000, 200};
constexpr BlockSizes kEmulSmoke{16, 60000, 64};
constexpr KvSizes kUpdateFull{120000, 96000, 32};
constexpr KvSizes kUpdateSmoke{3000, 1500, 4};
constexpr KvSizes kScanFull{120000, 3000, 3};
constexpr KvSizes kScanSmoke{3000, 400, 4};

constexpr std::uint32_t kMaintenanceInterval = 16;  // Ops between maintenance hooks.
constexpr std::size_t kValueBytes = 120;            // YCSB record size.
constexpr double kZipfTheta = 0.9;
constexpr std::uint32_t kMaxScanLength = 50;

double Seconds(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// A measured-phase delta of a monotone counter.
double Delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

// Wall time of fixed windows of consecutive ops, appended to `windows_s`: one clock read per
// window boundary, so the untraced run stays untraced.
class WindowClock {
 public:
  WindowClock(std::uint32_t window_ops, std::vector<double>* windows_s)
      : window_(window_ops), windows_s_(windows_s) {}
  void Start() { start_ns_ = last_ns_ = WallNowNs(); }
  void Tick() {
    if (++in_window_ == window_) {
      Close();
    }
  }
  // Closes a partial last window; returns the seconds since Start().
  double Stop() {
    if (in_window_ > 0) {
      Close();
    }
    return Seconds(start_ns_, last_ns_);
  }

 private:
  void Close() {
    const std::uint64_t now = WallNowNs();
    windows_s_->push_back(Seconds(last_ns_, now));
    last_ns_ = now;
    in_window_ = 0;
  }

  std::uint32_t window_;
  std::vector<double>* windows_s_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  std::uint32_t in_window_ = 0;
};

// Measured-phase clock: windows of `window_ops` ops into out->window_s.
WindowClock MeasuredClock(std::uint32_t window_ops, RepResult* out) {
  out->window_ops = window_ops;
  return WindowClock(window_ops, &out->window_s);
}

// Telemetry bundle for a rep: attached in kUntraced/kTraced, absent in kDetached.
Telemetry* MaybeTelemetry(const RepOptions& opts, std::unique_ptr<Telemetry>& holder) {
  if (opts.mode == Mode::kDetached) {
    return nullptr;
  }
  holder = std::make_unique<Telemetry>();
  return holder.get();
}

// Self-profiler shares and registry cost, recorded around the traced measured phase.
class TracedPhase {
 public:
  TracedPhase(const RepOptions& opts, Telemetry* tel)
      : tel_(opts.mode == Mode::kTraced ? tel : nullptr) {
    if (tel_ != nullptr) {
      tel_->selfprof.Enable();
      scope_.emplace(&tel_->selfprof, ProfSubsystem::kBench, ProfOp::kDispatch);
    }
  }

  // Closes the profiled region and publishes the shares into `out`.
  void Finish(RepResult* out) {
    if (tel_ == nullptr) {
      return;
    }
    scope_.reset();
    std::uint64_t self_total = 0;
    std::uint64_t self_by_sub[static_cast<std::size_t>(ProfSubsystem::kCount)] = {};
    for (std::size_t sub = 0; sub < static_cast<std::size_t>(ProfSubsystem::kCount); ++sub) {
      for (std::size_t op = 0; op < static_cast<std::size_t>(ProfOp::kCount); ++op) {
        const std::uint64_t ns =
            tel_->selfprof.cell(static_cast<ProfSubsystem>(sub), static_cast<ProfOp>(op)).self_ns;
        self_by_sub[sub] += ns;
        self_total += ns;
      }
    }
    for (const ProfSubsystem sub : {ProfSubsystem::kFlash, ProfSubsystem::kFtl, ProfSubsystem::kZns,
                                    ProfSubsystem::kHostFtl, ProfSubsystem::kZoneFile,
                                    ProfSubsystem::kKv, ProfSubsystem::kTelemetry}) {
      out->layer[std::string(blockhead::ProfSubsystemName(sub)) + ".selfprof_share"] =
          Ratio(static_cast<double>(self_by_sub[static_cast<std::size_t>(sub)]),
                static_cast<double>(self_total));
    }
    // Registry snapshot + JSON-lines render: what a bench pays to dump its metrics.
    const std::uint64_t t0 = WallNowNs();
    const auto snapshot = tel_->registry.Snapshot();
    std::string rendered;
    blockhead::JsonLinesSink().Render("perfbench", snapshot, &rendered);
    out->layer["telemetry.snapshot_ms"] = static_cast<double>(WallNowNs() - t0) / 1e6;
    out->layer["telemetry.registry_rows"] = static_cast<double>(snapshot.size());
  }

 private:
  Telemetry* tel_;
  std::optional<SelfProfiler::Scope> scope_;
};

void AddFlashLayer(const FlashStats& before, const FlashStats& after, RepResult* out) {
  const double programmed =
      Delta(after.total_pages_programmed(), before.total_pages_programmed());
  out->layer["flash.pages_programmed"] = programmed;
  out->layer["flash.pages_read"] = Delta(after.total_pages_read(), before.total_pages_read());
  out->layer["flash.blocks_erased"] = Delta(after.blocks_erased, before.blocks_erased);
  out->layer["flash.internal_program_share"] =
      Ratio(Delta(after.internal_pages_programmed, before.internal_pages_programmed), programmed);
}

void AddFtlLayer(const blockhead::FtlStats& before, const blockhead::FtlStats& after,
                 const FlashStats& flash_before, const FlashStats& flash_after, RepResult* out) {
  const double copied = Delta(after.gc_pages_copied, before.gc_pages_copied);
  out->layer["ftl.gc_runs"] = Delta(after.gc_runs, before.gc_runs);
  out->layer["ftl.gc_pages_copied"] = copied;
  out->layer["ftl.copies_per_reclaim"] =
      Ratio(copied, Delta(after.gc_blocks_reclaimed, before.gc_blocks_reclaimed));
  out->layer["ftl.foreground_gc_stalls"] =
      Delta(after.foreground_gc_stalls, before.foreground_gc_stalls);
  out->layer["ftl.write_amplification"] =
      Ratio(Delta(flash_after.total_pages_programmed(), flash_before.total_pages_programmed()),
            Delta(after.host_pages_written, before.host_pages_written));
}

void AddZnsLayer(const blockhead::ZnsStats& before, const blockhead::ZnsStats& after,
                 RepResult* out) {
  out->layer["zns.pages_written"] = Delta(after.pages_written + after.pages_appended,
                                          before.pages_written + before.pages_appended);
  out->layer["zns.pages_read"] = Delta(after.pages_read, before.pages_read);
  out->layer["zns.pages_copied"] = Delta(after.pages_copied, before.pages_copied);
  out->layer["zns.zone_resets"] = Delta(after.zone_resets, before.zone_resets);
}

std::string FlashFingerprint(const FlashStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "prog=%llu+%llu read=%llu+%llu erase=%llu",
                static_cast<unsigned long long>(s.host_pages_programmed),
                static_cast<unsigned long long>(s.internal_pages_programmed),
                static_cast<unsigned long long>(s.host_pages_read),
                static_cast<unsigned long long>(s.internal_pages_read),
                static_cast<unsigned long long>(s.blocks_erased));
  return buf;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string U(std::uint64_t v) { return std::to_string(v); }

// Keeps the first failure of the rep; any failure makes the run incorrect.
void RecordFailure(const blockhead::Status& s, const char* what, RepResult* out) {
  if (!s.ok() && out->error.empty()) {
    out->error = std::string(what) + ": " + s.ToString();
  }
}

// ---------------------------------------------------------------------------------------------
// Block workloads: a closed loop at a fixed queue depth (request n issues when request n-QD
// completes), as RunClosedLoop does, but calling the device directly so each call can be
// timed and counted.

struct BlockLoop {
  std::uint64_t ops = 0;
  std::uint32_t queue_depth = 1;
  SimTime start = 0;
  HostFtlBlockDevice* pump = nullptr;  // Maintenance hook target (every kMaintenanceInterval).
  SpanLog* spans = nullptr;
};

struct BlockLoopResult {
  SimTime end = 0;
  std::uint64_t pumps = 0;
  std::uint64_t useful_pumps = 0;  // Pumps that ran a GC cycle.
};

BlockLoopResult RunBlockLoop(BlockDevice& device, blockhead::WorkloadGenerator& gen,
                             const BlockLoop& loop, WindowClock& clock, RepResult* out) {
  BlockLoopResult r;
  r.end = loop.start;
  std::deque<SimTime> outstanding;
  clock.Start();
  for (std::uint64_t n = 0; n < loop.ops; ++n) {
    const IoRequest req = gen.Next();
    SimTime issue = loop.start;
    if (outstanding.size() >= loop.queue_depth) {
      issue = std::max(issue, outstanding.front());
      outstanding.pop_front();
    }
    if (loop.pump != nullptr && n % kMaintenanceInterval == 0) {
      SpanLog::Scope s(loop.spans, SpanName::kHostFtlPump);
      r.pumps++;
      if (loop.pump->Pump(issue, req.type == IoType::kRead, 1) > 0) {
        r.useful_pumps++;
      }
    }
    const Result<SimTime> done = req.type == IoType::kRead
                                     ? device.ReadBlocks(Lba{req.lba}, req.pages, issue)
                                     : device.WriteBlocks(Lba{req.lba}, req.pages, issue);
    out->attempted++;
    if (!done.ok()) {
      out->failed++;
      RecordFailure(done.status(), "block op", out);
      outstanding.push_back(issue);
    } else {
      outstanding.push_back(done.value());
      r.end = std::max(r.end, done.value());
    }
    clock.Tick();
  }
  out->measured_s = clock.Stop();
  return r;
}

// Host ns per generated op, timed on a separate generator with the same seed so the measured
// phase itself carries no extra clock reads.
template <typename Generator, typename Weigh>
void TimeGeneration(Generator gen, std::uint64_t ops, Weigh weigh, RepResult* out) {
  std::uint64_t sink = 0;
  const std::uint64_t t0 = WallNowNs();
  for (std::uint64_t i = 0; i < ops; ++i) {
    sink += weigh(gen.Next());
  }
  const std::uint64_t elapsed = WallNowNs() - t0;
  volatile std::uint64_t keep = sink;  // The draws must not be optimised away.
  (void)keep;
  out->layer["workload.gen_ns_per_op"] = static_cast<double>(elapsed) / static_cast<double>(ops);
}

std::uint64_t RequestLba(const IoRequest& r) { return r.lba; }

RepResult RunConvRandwrite(const RepOptions& opts) {
  const BlockSizes sizes = opts.smoke ? kConvSmoke : kConvFull;
  RepResult out;
  const std::uint64_t setup_start = WallNowNs();
  std::unique_ptr<Telemetry> tel_holder;
  Telemetry* tel = MaybeTelemetry(opts, tel_holder);
  MatchedConfig cfg = MatchedConfig::Bench();
  cfg.flash.geometry.blocks_per_plane = sizes.blocks_per_plane;
  cfg.flash.timing = blockhead::FlashTiming::FastForTests();
  cfg.ftl.op_fraction = 0.07;
  cfg.ftl.victim_policy = blockhead::GcVictimPolicy::kGreedy;
  ConventionalSsd ssd(cfg.flash, cfg.ftl);
  if (tel != nullptr) {
    ssd.AttachTelemetry(tel, "conv");
  }
  // Precondition: the whole logical space, sequentially, in 32 KiB writes.
  const Result<SimTime> fill = blockhead::SequentialFill(ssd, 1.0, 0, 8);
  out.setup_s = Seconds(setup_start, WallNowNs());
  if (!fill.ok()) {
    RecordFailure(fill.status(), "precondition", &out);
    return out;
  }

  blockhead::RandomWorkloadConfig wl;
  wl.lba_space = ssd.num_blocks();
  wl.read_fraction = 0.0;
  wl.io_pages = 1;
  wl.seed = opts.seed;
  if (opts.mode == Mode::kTraced) {
    TimeGeneration(blockhead::RandomWorkload(wl), sizes.ops, RequestLba, &out);
  }
  blockhead::RandomWorkload gen(wl);
  TimedBlockDevice timed(&ssd, TimedBlockDevice::Layer::kFtl, &ssd.ftl_stats().gc_runs);
  BlockDevice& device = opts.mode == Mode::kTraced ? static_cast<BlockDevice&>(timed) : ssd;
  timed.set_log(opts.spans);

  const blockhead::FtlStats ftl_before = ssd.ftl_stats();
  const FlashStats flash_before = ssd.flash().stats();
  BlockLoop loop;
  loop.ops = sizes.ops;
  loop.queue_depth = 1;
  loop.start = fill.value();
  WindowClock clock = MeasuredClock(sizes.window_ops, &out);
  TracedPhase traced(opts, tel);
  const BlockLoopResult run = RunBlockLoop(device, gen, loop, clock, &out);
  traced.Finish(&out);

  AddFlashLayer(flash_before, ssd.flash().stats(), &out);
  AddFtlLayer(ftl_before, ssd.ftl_stats(), flash_before, ssd.flash().stats(), &out);
  RecordFailure(ssd.CheckConsistency(), "ftl consistency", &out);
  const blockhead::FtlStats& fs = ssd.ftl_stats();
  out.fingerprint = "end=" + U(run.end) + " " + FlashFingerprint(ssd.flash().stats()) +
                    " gc_runs=" + U(fs.gc_runs) + " gc_copied=" + U(fs.gc_pages_copied) +
                    " stalls=" + U(fs.foreground_gc_stalls) +
                    " wa=" + Fmt("%.9g", ssd.WriteAmplification());
  return out;
}

RepResult RunEmulRandrw(const RepOptions& opts) {
  const BlockSizes sizes = opts.smoke ? kEmulSmoke : kEmulFull;
  RepResult out;
  const std::uint64_t setup_start = WallNowNs();
  std::unique_ptr<Telemetry> tel_holder;
  Telemetry* tel = MaybeTelemetry(opts, tel_holder);
  MatchedConfig cfg = MatchedConfig::Bench();
  cfg.flash.geometry.blocks_per_plane = sizes.blocks_per_plane;
  cfg.zns.zone_write_buffer_pages = 64;  // Equal buffering with the conventional device (E13).
  ZnsDevice dev(cfg.flash, cfg.zns);
  blockhead::HostFtlConfig hcfg;
  hcfg.op_fraction = 0.20;
  hcfg.use_simple_copy = true;
  HostFtlBlockDevice ftl(&dev, hcfg);
  if (tel != nullptr) {
    dev.AttachTelemetry(tel, "zns");
    ftl.AttachTelemetry(tel, "hostftl");
  }
  // Precondition: the whole logical space, sequentially, in 32 KiB writes.
  const Result<SimTime> fill = blockhead::SequentialFill(ftl, 1.0, 0, 8);
  out.setup_s = Seconds(setup_start, WallNowNs());
  if (!fill.ok()) {
    RecordFailure(fill.status(), "precondition", &out);
    return out;
  }

  blockhead::RandomWorkloadConfig wl;
  wl.lba_space = ftl.num_blocks();
  wl.read_fraction = 0.7;
  wl.io_pages = 1;
  wl.seed = opts.seed;
  if (opts.mode == Mode::kTraced) {
    TimeGeneration(blockhead::RandomWorkload(wl), sizes.ops, RequestLba, &out);
  }
  blockhead::RandomWorkload gen(wl);
  TimedBlockDevice timed(&ftl, TimedBlockDevice::Layer::kHostFtl, &ftl.stats().gc_cycles);
  BlockDevice& device = opts.mode == Mode::kTraced ? static_cast<BlockDevice&>(timed) : ftl;
  timed.set_log(opts.spans);

  const blockhead::HostFtlStats host_before = ftl.stats();
  const blockhead::ZnsStats zns_before = dev.stats();
  const FlashStats flash_before = dev.flash().stats();
  const std::uint64_t stall_before = ftl.scheduler().stats().forced_stall_ns;
  BlockLoop loop;
  loop.ops = sizes.ops;
  loop.queue_depth = 4;
  loop.start = fill.value() + 10 * blockhead::kMillisecond;
  loop.pump = &ftl;
  loop.spans = opts.spans;
  WindowClock clock = MeasuredClock(sizes.window_ops, &out);
  TracedPhase traced(opts, tel);
  const BlockLoopResult run = RunBlockLoop(device, gen, loop, clock, &out);
  traced.Finish(&out);

  const blockhead::HostFtlStats& hs = ftl.stats();
  AddFlashLayer(flash_before, dev.flash().stats(), &out);
  AddZnsLayer(zns_before, dev.stats(), &out);
  out.layer["hostftl.pump.calls"] = static_cast<double>(run.pumps);
  out.layer["hostftl.pump.useful_ratio"] =
      Ratio(static_cast<double>(run.useful_pumps), static_cast<double>(run.pumps));
  out.layer["hostftl.gc_cycles"] = Delta(hs.gc_cycles, host_before.gc_cycles);
  out.layer["hostftl.gc_pages_copied"] =
      Delta(hs.gc_pages_copied, host_before.gc_pages_copied);
  out.layer["hostftl.forced_gc_stalls"] =
      Delta(hs.forced_gc_stalls, host_before.forced_gc_stalls);
  out.layer["hostftl.write_amplification"] =
      Ratio(Delta(dev.flash().stats().total_pages_programmed(),
                  flash_before.total_pages_programmed()),
            Delta(hs.host_pages_written, host_before.host_pages_written));
  out.layer["sched.forced_stall_ms"] =
      Delta(ftl.scheduler().stats().forced_stall_ns, stall_before) / 1e6;
  RecordFailure(ftl.CheckConsistency(), "hostftl consistency", &out);
  out.fingerprint = "end=" + U(run.end) + " " + FlashFingerprint(dev.flash().stats()) +
                    " gc_cycles=" + U(hs.gc_cycles) + " gc_copied=" + U(hs.gc_pages_copied) +
                    " stalls=" + U(hs.forced_gc_stalls) +
                    " resets=" + U(dev.stats().zone_resets) +
                    " wa=" + Fmt("%.9g", ftl.EndToEndWriteAmplification());
  return out;
}

// ---------------------------------------------------------------------------------------------
// KV workloads: YCSB records and operations (the key and value formats of src/kv/ycsb.cc),
// issued directly against KvStore so every result can be checked against a reference model.

constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

std::string KeyOf(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu", static_cast<unsigned long long>(n));
  return buf;
}

// The record number of a KeyOf key, or kAbsent if `key` is not one.
std::uint64_t IndexOfKey(std::string_view key) {
  constexpr std::string_view kPrefix = "user";
  if (key.size() != kPrefix.size() + 12 || key.substr(0, kPrefix.size()) != kPrefix) {
    return kAbsent;
  }
  std::uint64_t n = 0;
  for (const char c : key.substr(kPrefix.size())) {
    if (c < '0' || c > '9') {
      return kAbsent;
    }
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return n;
}

std::string ValueOf(std::uint64_t id) {
  std::string v = "v" + std::to_string(id) + "-";
  while (v.size() < kValueBytes) {
    v += static_cast<char>('a' + (id + v.size()) % 26);
  }
  v.resize(kValueBytes);
  return v;
}

// Whether `v` equals ValueOf(id), checked in place.
bool IsValueOf(std::string_view v, std::uint64_t id) {
  char prefix[32];
  const auto n = static_cast<std::size_t>(
      std::snprintf(prefix, sizeof(prefix), "v%llu-", static_cast<unsigned long long>(id)));
  if (v.size() != kValueBytes || v.substr(0, n) != std::string_view(prefix, n)) {
    return false;
  }
  for (std::size_t i = n; i < kValueBytes; ++i) {
    if (v[i] != static_cast<char>('a' + (id + i) % 26)) {
      return false;
    }
  }
  return true;
}

struct KvOp {
  enum class Type { kGet, kPut, kScan } type = Type::kGet;
  std::uint64_t index = 0;  // Record number; the key is KeyOf(index).
  std::string key;
  std::uint64_t value_id = 0;  // kPut only; the value is ValueOf(value_id).
  std::string value;
  std::size_t scan_length = 0;
};

// YCSB-A (50% get / 50% update) or YCSB-E (95% scan / 5% insert), zipfian over the loaded
// records; updates and inserts carry fresh values.
class KvOpGenerator {
 public:
  KvOpGenerator(bool scans, std::uint64_t records, std::uint64_t seed)
      : scans_(scans), rng_(seed), zipf_(records, kZipfTheta, seed + 1), next_insert_(records) {}

  KvOp Next() {
    KvOp op;
    const double roll = rng_.NextDouble();
    if (!scans_) {
      op.index = zipf_.Next();
      if (roll >= 0.5) {
        op.type = KvOp::Type::kPut;
        op.value_id = updates_++ + next_insert_;
      }
    } else if (roll < 0.95) {
      op.type = KvOp::Type::kScan;
      op.scan_length = 1 + rng_.NextBelow(kMaxScanLength);
      op.index = zipf_.Next();
    } else {
      op.type = KvOp::Type::kPut;
      op.index = next_insert_;
      op.value_id = next_insert_++;
    }
    op.key = KeyOf(op.index);
    if (op.type == KvOp::Type::kPut) {
      op.value = ValueOf(op.value_id);
    }
    return op;
  }

 private:
  bool scans_;
  blockhead::Rng rng_;
  blockhead::ZipfGenerator zipf_;
  std::uint64_t next_insert_;
  std::uint64_t updates_ = 0;
};

// The reference model: the value id of every record, indexed by record number. KeyOf pads
// record numbers to a fixed width, so index order is key order. kAbsent marks a record number
// that was never stored (an insert that failed).
using Reference = std::vector<std::uint64_t>;

// The first stored record number at or after `index`; model.size() if there is none.
std::uint64_t NextStored(const Reference& model, std::uint64_t index) {
  while (index < model.size() && model[index] == kAbsent) {
    ++index;
  }
  return index;
}

struct ScanTally {
  std::uint64_t scans = 0;
  std::uint64_t entries = 0;
};

// Runs the measured KV phase, checking every result against `model`; returns the last
// completion time.
SimTime RunKvLoop(KvStore& store, Env& env, KvOpGenerator& gen, std::uint64_t ops, SimTime start,
                  Reference& model, SpanLog* spans, WindowClock& clock, RepResult* out,
                  ScanTally* tally) {
  SimTime t = start;
  clock.Start();
  for (std::uint64_t n = 0; n < ops; ++n) {
    const KvOp op = gen.Next();
    if (n % kMaintenanceInterval == 0) {
      env.Maintain(t, op.type != KvOp::Type::kPut);
    }
    out->attempted++;
    bool ok = true;
    switch (op.type) {
      case KvOp::Type::kGet: {
        Result<KvStore::GetResult> g = [&] {
          SpanLog::Scope s(spans, SpanName::kKvGet);
          return store.Get(op.key, t);
        }();
        if (!g.ok()) {
          RecordFailure(g.status(), "get", out);
          ok = false;
          break;
        }
        const bool stored = op.index < model.size() && model[op.index] != kAbsent;
        ok = g->found == stored && (!stored || IsValueOf(g->value, model[op.index]));
        t = std::max(t, g->completion);
        break;
      }
      case KvOp::Type::kPut: {
        Result<SimTime> p = [&] {
          SpanLog::Scope s(spans, SpanName::kKvPut);
          return store.Put(op.key, op.value, t);
        }();
        if (!p.ok()) {
          RecordFailure(p.status(), "put", out);
          ok = false;
          break;
        }
        if (op.index >= model.size()) {
          model.resize(op.index + 1, kAbsent);
        }
        model[op.index] = op.value_id;
        t = std::max(t, p.value());
        break;
      }
      case KvOp::Type::kScan: {
        Result<KvStore::ScanResult> s = [&] {
          SpanLog::Scope span(spans, SpanName::kKvScan);
          return store.Scan(op.key, op.scan_length, t);
        }();
        if (!s.ok()) {
          RecordFailure(s.status(), "scan", out);
          ok = false;
          break;
        }
        std::uint64_t i = NextStored(model, op.index);
        for (const auto& [key, value] : s->entries) {
          if (i == model.size() || IndexOfKey(key) != i || !IsValueOf(value, model[i])) {
            ok = false;
            break;
          }
          i = NextStored(model, i + 1);
        }
        // A short result is wrong unless the model ran out of records too.
        ok = ok && (s->entries.size() == op.scan_length || i == model.size());
        tally->scans++;
        tally->entries += s->entries.size();
        t = std::max(t, s->completion);
        break;
      }
    }
    if (!ok) {
      out->failed++;
    }
    clock.Tick();
  }
  out->measured_s = clock.Stop();
  return t;
}

blockhead::KvConfig StoreConfig() {  // bench_ycsb's store.
  blockhead::KvConfig cfg;
  cfg.memtable_bytes = 64 * blockhead::kKiB;
  cfg.level_base_bytes = 1 * blockhead::kMiB;
  cfg.level_multiplier = 3.0;
  cfg.target_table_bytes = 448 * blockhead::kKiB;
  cfg.max_levels = 5;
  return cfg;
}

MatchedConfig KvDeviceConfig() {  // bench_ycsb's device: 64 MiB, 512 KiB zones.
  MatchedConfig cfg = MatchedConfig::Bench();
  cfg.flash.geometry.channels = 2;
  cfg.flash.geometry.planes_per_channel = 2;
  cfg.flash.geometry.blocks_per_plane = 128;
  cfg.flash.geometry.pages_per_block = 32;
  cfg.flash.store_data = true;
  cfg.ftl.op_fraction = 0.07;
  return cfg;
}

std::string KvFingerprint(const blockhead::KvStats& s) {
  return "puts=" + U(s.puts) + " gets=" + U(s.gets) + " found=" + U(s.gets_found) +
         " flushes=" + U(s.flushes) + " compactions=" + U(s.compactions) +
         " compacted=" + U(s.bytes_compacted) + " stalls=" + U(s.stall_events);
}

void AddKvLayer(const blockhead::KvStats& before, const KvStore& store, RepResult* out) {
  const blockhead::KvStats& s = store.stats();
  out->layer["kv.flushes"] = Delta(s.flushes, before.flushes);
  out->layer["kv.compactions"] = Delta(s.compactions, before.compactions);
  out->layer["kv.bytes_compacted"] = Delta(s.bytes_compacted, before.bytes_compacted);
  out->layer["kv.stall_events"] = Delta(s.stall_events, before.stall_events);
  out->layer["kv.lsm_write_amplification"] = store.LsmWriteAmplification();
}

// Shared body of the two KV workloads once the env stack exists. `timed` is the kv -> env
// wrapper; `below` (if any) the env -> ftl wrapper.
struct KvStack {
  Env* env = nullptr;         // What the store talks to.
  TimedEnv* timed = nullptr;  // Non-null in kTraced.
  TimedBlockDevice* below = nullptr;
  Telemetry* tel = nullptr;
  std::uint64_t setup_start_ns = 0;
};

struct KvRun {
  std::unique_ptr<KvStore> store;
  SimTime end = 0;
  ScanTally scans;
};

// Opens and loads the store, runs the measured phase, and records kv-layer metrics. Returns
// nullopt on a set-up failure (recorded in out->error).
std::optional<KvRun> RunKv(const RepOptions& opts, bool scans, const KvStack& stack,
                           const std::function<void()>& mark_phase_start, RepResult* out) {
  const KvSizes sizes = scans ? (opts.smoke ? kScanSmoke : kScanFull)
                              : (opts.smoke ? kUpdateSmoke : kUpdateFull);
  KvRun run;
  auto opened = KvStore::Open(stack.env, StoreConfig(), 0);
  if (!opened.ok()) {
    RecordFailure(opened.status(), "open", out);
    return std::nullopt;
  }
  run.store = std::move(opened).value();
  if (stack.tel != nullptr) {
    run.store->AttachTelemetry(stack.tel, "kv");
  }
  blockhead::YcsbConfig load;
  load.record_count = sizes.records;
  load.value_bytes = kValueBytes;
  const Result<SimTime> loaded = blockhead::YcsbLoad(*run.store, load, 0);
  out->setup_s = Seconds(stack.setup_start_ns, WallNowNs());
  if (!loaded.ok()) {
    RecordFailure(loaded.status(), "load", out);
    return std::nullopt;
  }
  Reference model(sizes.records);
  std::iota(model.begin(), model.end(), std::uint64_t{0});  // YcsbLoad stores ValueOf(i) at i.
  if (opts.corrupt_reference) {
    model.front() ^= 1;  // The hottest zipfian key.
  }

  if (opts.mode == Mode::kTraced) {
    TimeGeneration(KvOpGenerator(scans, sizes.records, opts.seed), sizes.ops,
                   [](const KvOp& op) { return op.key.size(); }, out);
  }
  KvOpGenerator gen(scans, sizes.records, opts.seed);
  if (stack.timed != nullptr) {
    stack.timed->set_log(opts.spans);
  }
  if (stack.below != nullptr) {
    stack.below->set_log(opts.spans);
  }
  mark_phase_start();
  const blockhead::KvStats kv_before = run.store->stats();
  WindowClock clock = MeasuredClock(sizes.window_ops, out);
  TracedPhase traced(opts, stack.tel);
  const SimTime start = loaded.value() + 10 * blockhead::kMillisecond;
  run.end = RunKvLoop(*run.store, *stack.env, gen, sizes.ops, start, model, opts.spans, clock,
                      out, &run.scans);
  traced.Finish(out);
  AddKvLayer(kv_before, *run.store, out);
  out->layer["kv.entries_per_scan"] =
      Ratio(static_cast<double>(run.scans.entries), static_cast<double>(run.scans.scans));
  return run;
}

RepResult RunKvUpdateZns(const RepOptions& opts) {
  RepResult out;
  KvStack stack;
  stack.setup_start_ns = WallNowNs();
  std::unique_ptr<Telemetry> tel_holder;
  stack.tel = MaybeTelemetry(opts, tel_holder);
  const MatchedConfig cfg = KvDeviceConfig();
  ZnsDevice dev(cfg.flash, cfg.zns);
  blockhead::ZoneFileConfig zf;
  zf.finish_remainder_pages = 16;
  auto formatted = ZoneFileSystem::Format(&dev, zf, 0);
  if (!formatted.ok()) {
    RecordFailure(formatted.status(), "format", &out);
    return out;
  }
  std::unique_ptr<ZoneFileSystem> fs = std::move(formatted).value();
  if (stack.tel != nullptr) {
    dev.AttachTelemetry(stack.tel, "zns");
    fs->AttachTelemetry(stack.tel, "zonefile");
  }
  blockhead::ZoneEnv zone_env(fs.get());
  TimedEnv timed(&zone_env);
  stack.env = opts.mode == Mode::kTraced ? static_cast<Env*>(&timed) : &zone_env;
  stack.timed = opts.mode == Mode::kTraced ? &timed : nullptr;

  blockhead::ZoneFileStats zf_before;
  blockhead::ZnsStats zns_before;
  FlashStats flash_before;
  std::optional<KvRun> run = RunKv(opts, /*scans=*/false, stack, [&] {
    zf_before = fs->stats();
    zns_before = dev.stats();
    flash_before = dev.flash().stats();
  }, &out);
  if (!run) {
    return out;
  }
  const blockhead::ZoneFileStats& zs = fs->stats();
  AddFlashLayer(flash_before, dev.flash().stats(), &out);
  AddZnsLayer(zns_before, dev.stats(), &out);
  out.layer["zonefile.gc_cycles"] = Delta(zs.gc_cycles, zf_before.gc_cycles);
  out.layer["zonefile.gc_pages_copied"] =
      Delta(zs.gc_pages_copied, zf_before.gc_pages_copied);
  out.layer["zonefile.zones_reclaimed"] =
      Delta(zs.zones_reclaimed, zf_before.zones_reclaimed);
  out.layer["zonefile.meta_pages_written"] =
      Delta(zs.meta_pages_written, zf_before.meta_pages_written);
  RecordFailure(fs->CheckConsistency(), "zonefile consistency", &out);
  out.fingerprint = "end=" + U(run->end) + " " + FlashFingerprint(dev.flash().stats()) + " " +
                    KvFingerprint(run->store->stats()) + " zf_gc=" + U(zs.gc_cycles) +
                    " zf_copied=" + U(zs.gc_pages_copied) +
                    " resets=" + U(dev.stats().zone_resets) +
                    " wa=" + Fmt("%.9g", fs->EndToEndWriteAmplification());
  return out;
}

RepResult RunKvScanConv(const RepOptions& opts) {
  RepResult out;
  KvStack stack;
  stack.setup_start_ns = WallNowNs();
  std::unique_ptr<Telemetry> tel_holder;
  stack.tel = MaybeTelemetry(opts, tel_holder);
  const MatchedConfig cfg = KvDeviceConfig();
  ConventionalSsd ssd(cfg.flash, cfg.ftl);
  if (stack.tel != nullptr) {
    ssd.AttachTelemetry(stack.tel, "conv");
  }
  TimedBlockDevice timed_dev(&ssd, TimedBlockDevice::Layer::kFtl, &ssd.ftl_stats().gc_runs);
  BlockDevice* env_device = &ssd;
  if (opts.mode == Mode::kTraced) {
    env_device = &timed_dev;
  }
  blockhead::BlockEnv block_env(env_device);
  TimedEnv timed(&block_env);
  stack.env = opts.mode == Mode::kTraced ? static_cast<Env*>(&timed) : &block_env;
  stack.timed = opts.mode == Mode::kTraced ? &timed : nullptr;
  stack.below = opts.mode == Mode::kTraced ? &timed_dev : nullptr;

  blockhead::FtlStats ftl_before;
  FlashStats flash_before;
  std::optional<KvRun> run = RunKv(opts, /*scans=*/true, stack, [&] {
    ftl_before = ssd.ftl_stats();
    flash_before = ssd.flash().stats();
  }, &out);
  if (!run) {
    return out;
  }
  AddFlashLayer(flash_before, ssd.flash().stats(), &out);
  AddFtlLayer(ftl_before, ssd.ftl_stats(), flash_before, ssd.flash().stats(), &out);
  RecordFailure(ssd.CheckConsistency(), "ftl consistency", &out);
  const blockhead::FtlStats& fs = ssd.ftl_stats();
  out.fingerprint = "end=" + U(run->end) + " " + FlashFingerprint(ssd.flash().stats()) + " " +
                    KvFingerprint(run->store->stats()) + " scanned=" + U(run->scans.entries) +
                    " gc_runs=" + U(fs.gc_runs) + " gc_copied=" + U(fs.gc_pages_copied) +
                    " wa=" + Fmt("%.9g", ssd.WriteAmplification());
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"conv_randwrite", "emul_randrw", "kv_update_zns",
                                                 "kv_scan_conv"};
  return names;
}

std::size_t RepsPerGroup(std::string_view workload) {
  if (workload == "conv_randwrite") {
    return 12;
  }
  if (workload == "emul_randrw") {
    return 24;
  }
  return workload == "kv_update_zns" ? 8 : 6;
}

bool HasReferenceModel(std::string_view workload) {
  return workload == "kv_update_zns" || workload == "kv_scan_conv";
}

RepResult RunRep(const RepOptions& opts) {
  if (opts.workload == "conv_randwrite") {
    return RunConvRandwrite(opts);
  }
  if (opts.workload == "emul_randrw") {
    return RunEmulRandrw(opts);
  }
  if (opts.workload == "kv_update_zns") {
    return RunKvUpdateZns(opts);
  }
  return RunKvScanConv(opts);
}

std::string PinnedFingerprint(std::string_view workload, bool smoke) {
  // SimTime outcomes at kDefaultSeed. A change meant only to make the simulator faster must
  // leave these untouched; a deliberate model change re-pins them.
  struct Pin {
    const char* workload;
    const char* full;
    const char* smoke;
  };
  static constexpr Pin kPins[] = {
      {"conv_randwrite",
       "end=14654904 prog=609984+961691 read=0+961691 erase=8281 gc_runs=8281 gc_copied=961691 "
       "stalls=4211 wa=2.57658398",
       "end=503309 prog=61152+25254 read=0+25254 erase=239 gc_runs=239 gc_copied=25254 "
       "stalls=120 wa=1.41297096"},
      {"emul_randrw",
       "end=70340227000 prog=557165+504297 read=279738+504297 erase=4608 gc_cycles=144 "
       "gc_copied=504297 stalls=0 resets=144 wa=1.90511249",
       "end=14187509600 prog=71418+117710 read=41830+117710 erase=1024 gc_cycles=32 "
       "gc_copied=117710 stalls=31 resets=32 wa=2.64818393"},
      {"kv_update_zns",
       "end=12180265400 prog=40541+274 read=130476+274 erase=908 puts=167887 gets=48113 "
       "found=48113 flushes=388 compactions=267 compacted=97533117 stalls=0 zf_gc=192 "
       "zf_copied=274 resets=390 wa=1.15820393",
       "end=136689800 prog=483+0 read=1308+0 erase=0 puts=3762 gets=738 found=738 flushes=8 "
       "compactions=2 compacted=687046 stalls=0 zf_gc=0 zf_copied=0 resets=128 wa=1.16821465"},
      {"kv_scan_conv",
       "end=9079408200 prog=27567+180 read=144796+180 erase=368 puts=120149 gets=0 found=0 "
       "flushes=278 compactions=203 compacted=50977360 stalls=0 scanned=71728 gc_runs=368 "
       "gc_copied=180 wa=1.00652955",
       "end=266223600 prog=387+0 read=10521+0 erase=0 puts=3025 gets=0 found=0 flushes=7 "
       "compactions=1 compacted=251120 stalls=0 scanned=9026 gc_runs=0 gc_copied=0 wa=1"},
  };
  for (const Pin& pin : kPins) {
    if (workload == pin.workload) {
      return smoke ? pin.smoke : pin.full;
    }
  }
  return "";
}

}  // namespace perfbench
