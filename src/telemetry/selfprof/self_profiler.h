// Host-side self-profiler: wall-clock cost attribution for the simulator itself.
//
// Everything else in src/ is exhaustively instrumented in *simulated* time and deliberately
// blind to the wall clock (the lint bans it — determinism). Making the simulator faster needs
// the opposite view: where does *host CPU time* go while the simulator runs, how many
// nanoseconds of wall time does one simulated flash operation cost, and how much faster than
// real time does the model run? This module is the one sanctioned hole in the wall-clock ban
// (tools/lint.py allowlists `std::chrono::steady_clock` here and only here); nothing it
// measures ever feeds back into simulation behaviour, so SimTime-domain outputs stay
// byte-identical with the profiler on or off.
//
// Usage: layers open a `SelfProfiler::Scope(prof, subsystem, op)` around dispatch/GC/
// compaction work (via `ProfilerOf(telemetry_)`, which is nullptr when telemetry is
// detached). When the profiler is disabled — the default — a scope costs one branch.
// When enabled (bench_main's --perf):
//
//   * scopes nest, and elapsed wall time is attributed exclusively: a cell's `self_ns`
//     excludes time spent in child scopes, so summing self_ns over all cells reproduces the
//     profiled wall total (the attribution identity tested in tests/selfprof_test.cc);
//   * per-(subsystem, op) cells accumulate {count, total_ns, self_ns};
//   * scopes longer than `min_slice_ns` are additionally recorded as host-clock slices in a
//     bounded ring for the dual-clock Perfetto export (Timeline::ExportChromeTrace renders
//     them as a fourth process, so one trace shows simulated-time slices and the real CPU
//     cost that produced them side by side);
//   * Sample() derives events_per_sec, ns_per_simulated_op (wall ns per flash-level event —
//     the metric ci.sh --perf gates), sim_speedup (= sim elapsed / wall elapsed), and
//     process memory (current/peak RSS, allocator heap bytes).
//
// Test hook: BLOCKHEAD_SELFPROF_SPIN_FLASH_NS=<ns> (or SelfProfConfig::spin_flash_ns) makes
// every flash-subsystem scope busy-wait that many wall nanoseconds — SimTime is untouched,
// so outputs stay deterministic while ns_per_simulated_op inflates. ci.sh uses it to prove
// the perf regression gate actually fails on a deliberate slowdown.

#ifndef BLOCKHEAD_SRC_TELEMETRY_SELFPROF_SELF_PROFILER_H_
#define BLOCKHEAD_SRC_TELEMETRY_SELFPROF_SELF_PROFILER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/telemetry/metric_registry.h"
#include "src/util/types.h"

namespace blockhead {

// Subsystems wall time is attributed to. One value per layer that opens scopes, plus
// kTelemetry (sink/snapshot rendering overhead) and kBench (driver loops).
enum class ProfSubsystem : std::uint8_t {
  kFlash,
  kFtl,
  kZns,
  kHostFtl,
  kZoneFile,
  kCache,
  kKv,
  kFleet,
  kSched,
  kTelemetry,
  kBench,
  kCount,
};

// Event types within a subsystem. Not every (subsystem, op) pair occurs; cells are published
// only when count > 0.
enum class ProfOp : std::uint8_t {
  kRead,
  kWrite,
  kAppend,
  kErase,
  kReset,
  kGc,
  kCompaction,
  kEviction,
  kFlush,
  kMigration,
  kDispatch,
  kMaintenance,
  kSinkRender,
  kOther,
  kCount,
};

const char* ProfSubsystemName(ProfSubsystem sub);
const char* ProfOpName(ProfOp op);

struct SelfProfConfig {
  // Scopes shorter than this are aggregated into their cell but not recorded as host-clock
  // trace slices. Per-op scopes run well under a microsecond, so the default keeps only the
  // expensive outliers (GC cycles, compactions, sink renders) and the dual-clock trace stays
  // megabytes, not hundreds of megabytes, on million-op benches.
  std::uint64_t min_slice_ns = 50'000;
  // Host-slice ring bound; overflow evicts the oldest slice and counts it, so a saturated
  // ring holds the tail of the run.
  std::size_t max_slices = 1u << 15;
  // Busy-wait this many wall ns in every flash-subsystem scope (0 = off). Overridden by the
  // BLOCKHEAD_SELFPROF_SPIN_FLASH_NS environment variable; see file comment.
  std::uint64_t spin_flash_ns = 0;
};

// Wall-time totals for one (subsystem, op) cell.
struct ProfCell {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // Inclusive of child scopes.
  std::uint64_t self_ns = 0;   // Exclusive: total minus time in child scopes.
};

// Every (subsystem, op) cell, indexed subsystem-major.
using ProfCells = std::array<ProfCell, static_cast<std::size_t>(ProfSubsystem::kCount) *
                                           static_cast<std::size_t>(ProfOp::kCount)>;

// Derived metrics at one sampling instant (bench_main medians these across --repeat runs).
struct SelfProfSample {
  std::uint64_t wall_elapsed_ns = 0;  // Enable() -> now.
  std::uint64_t total_events = 0;     // All scopes closed.
  std::uint64_t flash_events = 0;     // kFlash scopes: the "simulated op" unit.
  double events_per_sec = 0.0;
  double ns_per_simulated_op = 0.0;  // wall_elapsed_ns / flash_events.
  double sim_speedup = 0.0;          // max SimTime observed / wall_elapsed_ns.
  std::uint64_t rss_bytes = 0;       // Current resident set (0 where unsupported).
  std::uint64_t peak_rss_bytes = 0;  // High-water resident set.
  std::uint64_t heap_bytes = 0;      // Allocator-reported in-use heap (0 where unsupported).
  ProfCells cells{};                  // The cells at this instant.
};

// One completed scope, host-clock-stamped relative to Enable() (the dual-clock trace track).
struct HostSlice {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  ProfSubsystem sub = ProfSubsystem::kBench;
  ProfOp op = ProfOp::kOther;
};

class SelfProfiler {
 public:
  SelfProfiler() = default;
  SelfProfiler(const SelfProfiler&) = delete;
  SelfProfiler& operator=(const SelfProfiler&) = delete;

  // RAII wall-clock scope. Construction/destruction is a single branch while the profiler is
  // disabled. Scopes must be destroyed in LIFO order (stack discipline) — guaranteed by RAII
  // in the single-threaded simulator.
  class Scope {
   public:
    Scope(SelfProfiler* prof, ProfSubsystem sub, ProfOp op) {
      if (prof != nullptr) {
        if (prof->delegate_ != nullptr) {
          prof = prof->delegate_;  // Nested bundle (fleet device): credit the root profiler.
        }
        if (prof->enabled_) {
          Begin(prof, sub, op);
        }
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (prof_ != nullptr) {
        End();
      }
    }

   private:
    void Begin(SelfProfiler* prof, ProfSubsystem sub, ProfOp op);
    void End();

    SelfProfiler* prof_ = nullptr;
    Scope* parent_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint64_t child_ns_ = 0;  // Wall time spent in directly nested scopes.
    ProfSubsystem sub_ = ProfSubsystem::kBench;
    ProfOp op_ = ProfOp::kOther;
  };

  // Turns profiling on: zeroes all cells/slices and starts the wall-clock epoch. Reads the
  // BLOCKHEAD_SELFPROF_SPIN_FLASH_NS environment override (see file comment).
  void Enable(const SelfProfConfig& config = SelfProfConfig{});
  bool enabled() const { return enabled_; }
  const SelfProfConfig& config() const { return config_; }

  // Tracks the simulation-time frontier (max over all calls) for sim_speedup. Layers call
  // this with operation completion times; cheap no-op when disabled.
  void NoteSimTime(SimTime t) {
    if (delegate_ != nullptr) {
      delegate_->NoteSimTime(t);
      return;
    }
    if (enabled_ && t > max_sim_time_) {
      max_sim_time_ = t;
    }
  }

  // Forwards all scopes and sim-time notes from this profiler to `target` (nullptr restores
  // independence). Composite layers that give sub-components their own Telemetry bundles —
  // the fleet gives every device one — delegate the sub-bundle profilers to the bench-level
  // profiler, so device-internal flash/FTL scopes land in the run-wide attribution and
  // nest correctly under the fleet's own scopes (one shared scope stack). One hop only:
  // delegates of delegates are not chased.
  void DelegateTo(SelfProfiler* target) { delegate_ = (target == this) ? nullptr : target; }

  // Monotonic wall clock in nanoseconds (steady_clock — results never go backwards).
  static std::uint64_t WallNowNs() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
  }

  const ProfCell& cell(ProfSubsystem sub, ProfOp op) const {
    return cells_[CellIndex(sub, op)];
  }
  SimTime max_sim_time() const { return max_sim_time_; }
  const std::deque<HostSlice>& host_slices() const { return slices_; }
  std::uint64_t slices_dropped() const { return slices_dropped_; }

  // Derived metrics now (memory read from the OS where supported, else 0).
  SelfProfSample Sample() const;

  // Publishes the breakdown and derived metrics into `registry` under "selfprof.host.*":
  //   selfprof.host.wall_elapsed_ns / total_events / flash_events      (counters)
  //   selfprof.host.events_per_sec / ns_per_simulated_op / sim_speedup (gauges)
  //   selfprof.host.rss_bytes / peak_rss_bytes / heap_bytes            (counters)
  //   selfprof.host.<subsystem>.<op>.{count,wall_ns,self_ns}           (counters, count > 0)
  //   selfprof.host.<subsystem>.self_ns                                 (counters)
  // Everything under the "selfprof.host." prefix is wall-clock-domain and therefore excluded
  // from determinism comparisons (bench_main strips the prefix when asserting repeat
  // byte-identity; BENCH_baseline.json never contains these rows).
  void PublishTo(MetricRegistry& registry) const;
  // The per-cell and per-subsystem rows of PublishTo, from `cells`.
  static void PublishCells(MetricRegistry& registry, const ProfCells& cells);

  // The prefix that marks wall-clock-domain (nondeterministic) metrics.
  static constexpr const char* kHostMetricPrefix = "selfprof.host.";

 private:
  friend class Scope;

  static std::size_t CellIndex(ProfSubsystem sub, ProfOp op) {
    return static_cast<std::size_t>(sub) * static_cast<std::size_t>(ProfOp::kCount) +
           static_cast<std::size_t>(op);
  }

  void RecordSlice(ProfSubsystem sub, ProfOp op, std::uint64_t begin_ns, std::uint64_t end_ns);

  bool enabled_ = false;
  SelfProfConfig config_;
  std::uint64_t epoch_ns_ = 0;  // WallNowNs() at Enable().
  SimTime max_sim_time_ = 0;
  Scope* top_ = nullptr;              // Innermost open scope (single-threaded stack discipline).
  SelfProfiler* delegate_ = nullptr;  // Non-null: forward everything to this profiler.
  ProfCells cells_{};
  std::uint64_t total_events_ = 0;
  std::deque<HostSlice> slices_;
  std::uint64_t slices_dropped_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_SELFPROF_SELF_PROFILER_H_
