#include "src/sched/gc_scheduler.h"

namespace blockhead {

const char* GcSchedPolicyName(GcSchedPolicy policy) {
  switch (policy) {
    case GcSchedPolicy::kInline:
      return "inline";
    case GcSchedPolicy::kBackground:
      return "background";
    case GcSchedPolicy::kReadPriority:
      return "read-priority";
    case GcSchedPolicy::kRateLimited:
      return "rate-limited";
  }
  return "unknown";
}

bool GcScheduler::ShouldRun(double free_fraction, bool reads_pending, SimTime now) {
  stats_.decisions++;
  const auto allow = [this](bool yes) {
    (yes ? stats_.allowed : stats_.denied)++;
    return yes;
  };
  // Space-critical reclamation is mandatory under every policy: running out of free zones
  // would halt writes entirely.
  if (Critical(free_fraction)) {
    stats_.critical_overrides++;
    return allow(true);
  }
  if (free_fraction > config_.low_free_fraction) {
    return allow(false);  // Plenty of space: never reclaim early.
  }
  switch (config_.policy) {
    case GcSchedPolicy::kInline:
      return allow(false);  // Only critical reclamation, handled above.
    case GcSchedPolicy::kBackground:
      return allow(true);
    case GcSchedPolicy::kReadPriority:
      return allow(!reads_pending);
    case GcSchedPolicy::kRateLimited:
      return allow(!has_run_ || now >= last_run_ + kMinGcInterval);
  }
  return allow(false);
}

}  // namespace blockhead
