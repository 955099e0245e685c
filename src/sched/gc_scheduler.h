// Host-side garbage-collection scheduling policies (§4.1 of the paper: "the host is in full
// control and can precisely schedule zone erasures and maintenance operations").
//
// On a conventional SSD the device decides when GC runs and the host cannot influence it. On a
// ZNS SSD space reclamation is host software, so *policy* becomes a tunable: run GC inline with
// writes, only in background/idle gaps, deferred whenever reads are pending, or rate-limited.
// bench_sched_policies (E11) sweeps these policies and measures read tail latency.

#ifndef BLOCKHEAD_SRC_SCHED_GC_SCHEDULER_H_
#define BLOCKHEAD_SRC_SCHED_GC_SCHEDULER_H_

#include <cstdint>

#include "src/util/types.h"

namespace blockhead {

enum class GcSchedPolicy {
  // Reclaim only when space is critically low, synchronously with the triggering write.
  kInline,
  // Opportunistically reclaim during idle ticks once below the high watermark.
  kBackground,
  // Like kBackground, but never run maintenance while foreground reads are pending (unless
  // space is critical). Trades write headroom for read tail latency.
  kReadPriority,
  // Like kBackground, but at most one GC cycle per GcScheduler::kMinGcInterval (smooths
  // erase bursts).
  kRateLimited,
};

const char* GcSchedPolicyName(GcSchedPolicy policy);

struct GcSchedulerConfig {
  GcSchedPolicy policy = GcSchedPolicy::kBackground;
  // Free-space fraction below which reclamation is mandatory (runs regardless of policy).
  double critical_free_fraction = 0.04;
  // Free-space fraction below which opportunistic reclamation starts.
  double low_free_fraction = 0.20;
};

// Decision tallies, exported by ZoneReclaimer under `<prefix>.sched.*`.
struct GcSchedStats {
  std::uint64_t decisions = 0;          // ShouldRun calls.
  std::uint64_t allowed = 0;            // ... that returned true.
  std::uint64_t critical_overrides = 0; // ... allowed only because space was critical.
  std::uint64_t denied = 0;             // ... that returned false.
  std::uint64_t runs = 0;               // NoteRun calls (cycles actually executed).
  std::uint64_t forced_stall_ns = 0;    // SimTime foreground ops spent in mandatory reclaim.
};

// Pure decision logic: the storage layer reports its free fraction and whether foreground I/O
// is pending; the scheduler says whether a GC cycle may run now.
class GcScheduler {
 public:
  // Minimum spacing between GC cycles for kRateLimited.
  static constexpr SimTime kMinGcInterval = 2 * kMillisecond;

  explicit GcScheduler(const GcSchedulerConfig& config) : config_(config) {}

  const GcSchedulerConfig& config() const { return config_; }
  const GcSchedStats& stats() const { return stats_; }

  // True if a reclamation cycle should run at `now`.
  bool ShouldRun(double free_fraction, bool reads_pending, SimTime now);

  // Record that a cycle ran (feeds the rate limiter).
  void NoteRun(SimTime now) {
    last_run_ = now;
    has_run_ = true;
    stats_.runs++;
  }

  // Records SimTime a foreground op spent stalled in mandatory (critical) reclamation —
  // the scheduler-policy cost the reqpath ledger attributes per request, aggregated here so
  // the policy's total stall budget is visible next to its decision tallies.
  void NoteForcedStall(SimTime ns) { stats_.forced_stall_ns += ns; }

  // True when free space is below the mandatory threshold.
  bool Critical(double free_fraction) const {
    return free_fraction <= config_.critical_free_fraction;
  }

 private:
  GcSchedulerConfig config_;
  SimTime last_run_ = 0;
  bool has_run_ = false;
  GcSchedStats stats_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_SCHED_GC_SCHEDULER_H_
