#include "src/sched/gc_scheduler.h"

#include "src/telemetry/event_log.h"

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

void GcScheduler::AttachEvents(EventLog* events, std::string_view source) {
  events_ = events;
  source_ = std::string(source);
  has_decision_ = false;  // The first decision after (re)attach is always an edge.
}

void GcScheduler::NoteDecision(bool run, SimTime now) const {
  const bool changed = !has_decision_ || run != last_decision_;
  has_decision_ = true;
  last_decision_ = run;
  if (events_ == nullptr || !changed) {
    return;
  }
  events_->Append(now, TimelineEventType::kGcWindow, source_,
                  std::string(run ? "window open" : "window closed") + " policy " +
                      GcSchedPolicyName(config_.policy),
                  run ? 1 : 0, 0);
}

bool GcScheduler::ShouldRun(double free_fraction, bool reads_pending, SimTime now) const {
  stats_.decisions++;
  const auto allow = [this, now](bool yes) {
    (yes ? stats_.allowed : stats_.denied)++;
    NoteDecision(yes, now);
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
      return allow(!has_run_ || now >= last_run_ + config_.min_gc_interval);
  }
  return allow(false);
}

}  // namespace blockhead
