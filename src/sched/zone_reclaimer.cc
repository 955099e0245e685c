#include "src/sched/zone_reclaimer.h"

#include <algorithm>

#include "src/telemetry/telemetry.h"

namespace blockhead {

ZoneReclaimer::ZoneReclaimer(ZnsDevice* device, const GcSchedulerConfig& sched,
                             std::uint32_t first_zone, double max_live_fraction,
                             std::uint32_t step_pages)
    : device_(device),
      scheduler_(sched),
      first_zone_(first_zone),
      max_live_fraction_(max_live_fraction),
      step_pages_(step_pages),
      live_(device->num_zones(), 0) {}

std::uint32_t ZoneReclaimer::PickVictim(bool critical,
                                        std::span<const std::uint32_t> skip) const {
  std::uint32_t best = kNoZone;
  std::uint32_t best_live = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t z = first_zone_; z < device_->num_zones(); ++z) {
    if (std::find(skip.begin(), skip.end(), z) != skip.end()) {
      continue;
    }
    // A fully live zone frees nothing; a mostly live one costs more to copy than opportunistic
    // reclaim gains.
    const ZoneDescriptor d = device_->zone(ZoneId{z});
    if (d.state != ZoneState::kFull || live_[z] >= d.capacity_pages ||
        (!critical && static_cast<double>(live_[z]) >
                          max_live_fraction_ * static_cast<double>(d.capacity_pages))) {
      continue;
    }
    if (live_[z] < best_live) {
      best_live = live_[z];
      best = z;
    }
  }
  return best;
}

Status ZoneReclaimer::BeginCycle(SimTime now, bool critical, std::span<const std::uint32_t> skip,
                                 std::uint64_t copied) {
  const std::uint32_t victim = PickVictim(critical, skip);
  if (victim == kNoZone) {
    return Status(ErrorCode::kNoFreeBlocks, "no reclaimable zone");
  }
  victim_ = victim;
  cycle_copied_base_ = copied;
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(now, TimelineEventType::kGcVictim, prefix_,
                              "victim zone " + std::to_string(victim) + " live " +
                                  std::to_string(live_[victim]) + (critical ? " critical" : ""),
                              victim, live_[victim]);
  }
  return Status::Ok();
}

void ZoneReclaimer::NoteStep(SimTime begin, SimTime end, std::uint64_t moved) const {
  if (telemetry_ != nullptr && moved > 0) {
    telemetry_->timeline.RecordMaintenance(prefix_ + ".gc", "gc_step", begin, end);
  }
}

Result<SimTime> ZoneReclaimer::FinishCycle(SimTime now, SimTime t, std::uint64_t copied) {
  assert(live_[victim_] == 0);
  Result<SimTime> reset = device_->ResetZone(ZoneId{victim_}, t);
  if (!reset.ok()) {
    return reset;
  }
  if (device_->zone(ZoneId{victim_}).state != ZoneState::kOffline) {
    free_zones_.push_back(victim_);
  }
  scheduler_.NoteRun(now);
  if (telemetry_ != nullptr) {
    const std::uint64_t cycle_copied = copied - cycle_copied_base_;
    telemetry_->events.Append(reset.value(), TimelineEventType::kGcCycle, prefix_,
                              "cycle done zone " + std::to_string(victim_) + " copied " +
                                  std::to_string(cycle_copied),
                              victim_, cycle_copied);
    telemetry_->timeline.AdvanceGroup(sampler_group_, reset.value());
  }
  victim_ = kNoZone;
  return reset;
}

void ZoneReclaimer::AttachTelemetry(Telemetry* telemetry, std::string_view prefix,
                                    int sampler_group) {
  telemetry_ = telemetry;
  prefix_ = std::string(prefix);
  sampler_group_ = sampler_group;
  window_ = -1;
}

bool ZoneReclaimer::ShouldRun(bool reads_pending, SimTime now) {
  const bool run = scheduler_.ShouldRun(FreeFraction(), reads_pending, now);
  if (telemetry_ != nullptr && window_ != static_cast<int>(run)) {
    telemetry_->events.Append(now, TimelineEventType::kGcWindow, prefix_ + ".sched",
                              std::string(run ? "window open" : "window closed") + " policy " +
                                  GcSchedPolicyName(scheduler_.config().policy),
                              run ? 1 : 0, 0);
  }
  window_ = run;
  return run;
}

void ZoneReclaimer::PublishMetrics() const {
  MetricRegistry& reg = telemetry_->registry;
  const GcSchedStats& sched = scheduler_.stats();
  reg.GetCounter(prefix_ + ".sched.decisions")->Set(sched.decisions);
  reg.GetCounter(prefix_ + ".sched.allowed")->Set(sched.allowed);
  reg.GetCounter(prefix_ + ".sched.critical_overrides")->Set(sched.critical_overrides);
  reg.GetCounter(prefix_ + ".sched.denied")->Set(sched.denied);
  reg.GetCounter(prefix_ + ".sched.runs")->Set(sched.runs);
  reg.GetGauge(prefix_ + ".free_zones")->Set(static_cast<double>(FreeZones()));
  reg.GetGauge(prefix_ + ".free_fraction")->Set(FreeFraction());
}

}  // namespace blockhead
