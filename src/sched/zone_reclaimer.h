// The host zone reclaimer shared by the block-on-ZNS host FTL (src/hostftl) and the zoned file
// backend (src/zonefile): on ZNS, reclaim is host software (§2.3), and the two layers differ
// only in how live data leaves the victim. Each passes Pump / RunWhileCritical a step function
// `Result<SimTime>(SimTime now, bool critical, std::uint32_t max_pages)` that relocates up to
// `max_pages` live pages of the pending victim between BeginCycle, NoteStep and FinishCycle.

#ifndef BLOCKHEAD_SRC_SCHED_ZONE_RECLAIMER_H_
#define BLOCKHEAD_SRC_SCHED_ZONE_RECLAIMER_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sched/gc_scheduler.h"
#include "src/util/status.h"
#include "src/util/types.h"
#include "src/zns/zns_device.h"

namespace blockhead {

class ZoneReclaimer {
 public:
  static constexpr std::uint32_t kNoZone = ~0U;

  // `device` must outlive the reclaimer. Zones below `first_zone` are never victims and do
  // not count toward FreeFraction. Pump relocates at most `step_pages` pages per step.
  ZoneReclaimer(ZnsDevice* device, const GcSchedulerConfig& sched, std::uint32_t first_zone,
                double max_live_fraction, std::uint32_t step_pages);

  void AddFreeZone(std::uint32_t zone_index) { free_zones_.push_back(zone_index); }
  // Pops the most recently added free zone, or kNoZone. Which zone states to accept is the
  // layer's call.
  std::uint32_t TakeFreeZone() {
    if (free_zones_.empty()) {
      return kNoZone;
    }
    const std::uint32_t zone_index = free_zones_.back();
    free_zones_.pop_back();
    return zone_index;
  }
  std::uint64_t FreeZones() const { return free_zones_.size(); }
  double FreeFraction() const {
    return static_cast<double>(free_zones_.size()) /
           static_cast<double>(device_->num_zones() - first_zone_);
  }

  bool LiveMatches(const std::vector<std::uint32_t>& live) const { return live == live_; }
  void AddLive(std::uint32_t zone_index, std::uint32_t pages) { live_[zone_index] += pages; }
  void DropLive(std::uint32_t zone_index, std::uint32_t pages) {
    assert(live_[zone_index] >= pages);
    live_[zone_index] -= pages;
  }

  const GcScheduler& scheduler() const { return scheduler_; }
  GcScheduler& scheduler() { return scheduler_; }
  bool Critical() const { return scheduler_.Critical(FreeFraction()); }

  // The least-live full zone in [first_zone, num_zones), not in `skip`, not fully live and,
  // unless `critical`, at most max_live_fraction live; lowest index wins ties; else kNoZone.
  std::uint32_t PickVictim(bool critical, std::span<const std::uint32_t> skip) const;
  std::uint32_t victim() const { return victim_; }
  // Makes PickVictim's choice the pending victim, takes `copied` (the layer's all-time
  // relocated-page count) as the cycle's base and logs kGcVictim. kNoFreeBlocks if none.
  Status BeginCycle(SimTime now, bool critical, std::span<const std::uint32_t> skip,
                    std::uint64_t copied);
  // A step that relocated `moved` > 0 pages over [begin, end] becomes a "gc_step" slice on
  // the "<prefix>.gc" track.
  void NoteStep(SimTime begin, SimTime end, std::uint64_t moved) const;
  // Resets the drained victim at `t` and returns it to the pool unless it went offline, notes
  // the run at `now` (the step's start), logs kGcCycle with the pages copied since BeginCycle
  // and advances the layer's sampler group. On a failed reset the victim stays pending.
  Result<SimTime> FinishCycle(SimTime now, SimTime t, std::uint64_t copied);

  // Opportunistic maintenance: runs up to `max_cycles` steps while a victim is pending or the
  // scheduler allows a new one. Returns steps run.
  template <typename StepFn>
  std::uint32_t Pump(SimTime now, bool reads_pending, std::uint32_t max_cycles, StepFn&& step) {
    std::uint32_t ran = 0;
    for (; ran < max_cycles; ++ran) {
      if (victim_ == kNoZone && !ShouldRun(reads_pending, now)) {
        break;
      }
      Result<SimTime> done = step(now, Critical(), step_pages_);
      if (!done.ok()) {
        break;
      }
      now = done.value();
    }
    return ran;
  }
  // Mandatory reclaim: whole cycles until space is no longer critical or nothing is
  // reclaimable. Returns when the last cycle completed (`now` if none ran).
  template <typename StepFn>
  SimTime RunWhileCritical(SimTime now, StepFn&& step) {
    while (Critical()) {
      Result<SimTime> done =
          step(now, /*critical=*/true, std::numeric_limits<std::uint32_t>::max());
      if (!done.ok()) {
        break;
      }
      now = done.value();
    }
    return now;
  }

  // Logs events under `prefix` and advances the layer-owned `sampler_group` at each reset.
  // Scheduler decisions become edge-triggered kGcWindow events under "<prefix>.sched": one
  // whenever the answer flips, the first after each (re)attach included. nullptr detaches.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix, int sampler_group);
  // Publishes `<prefix>.sched.{decisions,allowed,critical_overrides,denied,runs}` and the
  // `<prefix>.free_zones` / `<prefix>.free_fraction` gauges while attached.
  void PublishMetrics() const;

 private:
  // GcScheduler::ShouldRun at the current free fraction, logging window edges.
  bool ShouldRun(bool reads_pending, SimTime now);

  ZnsDevice* device_;
  GcScheduler scheduler_;
  std::uint32_t first_zone_;
  double max_live_fraction_;
  std::uint32_t step_pages_;

  std::vector<std::uint32_t> free_zones_;
  std::vector<std::uint32_t> live_;
  std::uint32_t victim_ = kNoZone;
  std::uint64_t cycle_copied_base_ = 0;

  Telemetry* telemetry_ = nullptr;
  std::string prefix_;
  int sampler_group_ = -1;
  int window_ = -1;  // Last ShouldRun answer since the last (re)attach; -1 before the first.
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_SCHED_ZONE_RECLAIMER_H_
