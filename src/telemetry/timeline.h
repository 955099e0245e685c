// Deterministic SimTime event timeline: Chrome-trace/Perfetto export plus utilization
// time-series.
//
// The timeline answers the question the paper's quantitative claims hinge on: *when* things
// happen — which GC copies ran under which host reads, how write-pointer serialization spaces
// out writes, how plane utilization breathes as zones fill and reset. It records three kinds
// of data, all stamped with model time only (never the wall clock), so two same-seed runs
// serialize byte-identically:
//
//   * Span slices  — every completed Tracer span (a KV Get, an FTL write) becomes a duration
//     slice on a per-span-name track under the "host ops" process (pid 0).
//   * Maintenance slices — device reclamation work (GC copy reads/programs, block erases,
//     zone resets) on per-plane tracks under the "device maintenance" process (pid 1), so GC
//     interference is visible as overlap between pid-0 and pid-1 tracks.
//   * Samples      — per-plane/per-channel busy fractions and free-space/WA gauges, sampled on
//     a fixed model-time cadence into named series ("utilization" process, pid 2, rendered as
//     counter tracks).
//
// Sampling is pull-based and grouped per layer: a layer registers a sampler group under its
// metric prefix and calls AdvanceGroup(group, now) after each operation; whenever `now`
// crosses the sampling grid the timeline emits one sample per registered series. Sampler
// callbacks receive the grid boundary being emitted, so cumulative values can be settled
// exactly up to that instant. kRate samplers report a cumulative value (e.g. busy
// nanoseconds) and the timeline emits the windowed rate of change — for busy-ns settled at
// the boundary (see BusySeries) this is exactly the 0..1 busy fraction. Groups advance
// independently, so two stacks driven over disjoint phases of a bench each produce full
// series.
//
// The timeline is disabled by default and costs one branch per call site until Enable()d
// (benches enable it for --trace/--timeseries). Slice and sample stores are bounded rings:
// overflow evicts the oldest record and counts it, deterministically.

#ifndef BLOCKHEAD_SRC_TELEMETRY_TIMELINE_H_
#define BLOCKHEAD_SRC_TELEMETRY_TIMELINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/types.h"

namespace blockhead {

class SelfProfiler;  // Dual-clock export: host-clock slices ride along (selfprof module).

// Cumulative busy time of a serially-used resource (a plane, a channel bus), settled at
// sample boundaries. The simulator books an operation's whole service interval at issue time
// even though it extends into the model future; a plain cumulative counter would therefore
// credit minutes of service into the issue window and report busy "fractions" far above 1.
// BusySeries keeps the booked intervals and SettledNsAt(t) counts only the portion at or
// before `t`, carrying the overhang into later windows — a kRate sampler over it yields a
// true 0..1 utilization. Intervals must be booked with nondecreasing start times and
// boundaries queried in nondecreasing order; serialized resources and the group clock
// guarantee both. A booked start earlier than an already-queried boundary (the sampling
// clock, driven by sibling resources, can race ahead of an idle resource) is clipped to that
// boundary: already-reported windows are immutable, so the pre-boundary portion is dropped
// rather than mis-credited to the current window.
class BusySeries {
 public:
  void Book(SimTime start, SimTime end) {
    if (start < settled_t_) {
      start = settled_t_;
    }
    if (end <= start) {
      return;
    }
    if (!intervals_.empty() && start <= intervals_.back().second) {
      if (end > intervals_.back().second) {
        intervals_.back().second = end;
      }
      return;
    }
    intervals_.emplace_back(start, end);
  }

  // Busy nanoseconds accumulated at or before `t`. Fully-settled intervals are retired, so
  // the queue only ever holds work still in flight at the last queried boundary.
  std::uint64_t SettledNsAt(SimTime t) {
    if (t > settled_t_) {
      settled_t_ = t;
    }
    while (!intervals_.empty() && intervals_.front().second <= t) {
      settled_ += intervals_.front().second - intervals_.front().first;
      intervals_.pop_front();
    }
    if (!intervals_.empty() && intervals_.front().first < t) {
      settled_ += t - intervals_.front().first;
      intervals_.front().first = t;
    }
    return settled_;
  }

 private:
  std::deque<std::pair<SimTime, SimTime>> intervals_;  // Disjoint, ordered, merged.
  std::uint64_t settled_ = 0;
  SimTime settled_t_ = 0;  // Highest boundary queried; books before it are clipped.
};

struct TimelineConfig {
  // Sampling cadence for all sampler groups (model time).
  SimTime sample_interval = 100 * kMicrosecond;
  // Ring-buffer bounds; overflow evicts the oldest record and bumps the dropped counters.
  std::size_t max_slices = 1u << 20;
  std::size_t max_samples = 1u << 20;
};

class Timeline {
 public:
  // Chrome-trace process ids used for track grouping.
  static constexpr std::uint32_t kHostPid = 0;         // Tracer span slices.
  static constexpr std::uint32_t kMaintenancePid = 1;  // GC/erase/reset slices.
  static constexpr std::uint32_t kUtilizationPid = 2;  // Sampled counter series.
  static constexpr std::uint32_t kSelfProfilePid = 3;  // Host-clock self-profile slices.

  Timeline() = default;
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  // Turns recording on. Clears previously recorded slices/samples and resets every sampler
  // group's clock, so a bench that enables late still gets grid-aligned samples.
  void Enable(const TimelineConfig& config = TimelineConfig{});
  bool enabled() const { return enabled_; }
  const TimelineConfig& config() const { return config_; }

  // Records a completed tracer span as a slice on the per-name host track. Called by Tracer.
  void RecordSpan(std::string_view name, SimTime begin, SimTime end) {
    if (enabled_) {
      PushSlice(kHostPid, name, name, begin, end);
    }
  }

  // Records maintenance work (GC copy read/program, erase, reset) as a slice on `track`
  // (conventionally "<prefix>.plane<i>" so per-plane pipelines render as clean rows).
  void RecordMaintenance(std::string_view track, std::string_view name, SimTime begin,
                         SimTime end) {
    if (enabled_) {
      PushSlice(kMaintenancePid, track, name, begin, end);
    }
  }

  // Records a host-process slice on an explicit track (reqpath exemplar victims render on
  // per-op-class tracks instead of the per-span-name tracks RecordSpan uses).
  void RecordHostSlice(std::string_view track, std::string_view name, SimTime begin,
                       SimTime end) {
    if (enabled_) {
      PushSlice(kHostPid, track, name, begin, end);
    }
  }

  // Records a flow arrow from a maintenance track (the interfering GC/compaction slice) to a
  // host track (the victim request). Rendered as a Chrome-trace flow-event pair ("s"/"f"),
  // which Perfetto draws as an arrow between the slices enclosing the two endpoints.
  void RecordFlowArrow(std::string_view name, std::string_view from_maintenance_track,
                       SimTime from_t, std::string_view to_host_track, SimTime to_t);

  enum class SampleKind {
    kInstant,  // Emit the sampled value as-is (gauges: free blocks, WA).
    kRate,     // Emit (value - previous) / window_ns (cumulative busy-ns -> busy fraction).
  };

  // Get-or-creates a sampler group keyed by `id` (a layer's metric prefix). Returns a handle
  // for AdvanceGroup. Re-creating an existing id drops its samplers and reuses the handle.
  int AddSamplerGroup(std::string_view id);

  // Registers a series in a group. `fn` is polled at each sample point with the grid
  // boundary being emitted (kInstant samplers may ignore it); series appear in the CSV and
  // as counter tracks in the trace. Registration order fixes the emission order.
  void AddSampler(int group, std::string_view series, SampleKind kind,
                  std::function<double(SimTime)> fn);

  // Drops a group's samplers (the handle stays valid but inert). Layers call this on detach.
  void RemoveSamplerGroup(std::string_view id);

  // Advances a group's sampling clock to `now`, emitting one sample per series each time the
  // grid is crossed. Cheap no-op when disabled or the grid was not reached.
  void AdvanceGroup(int group, SimTime now) {
    if (enabled_ && group >= 0 && now >= groups_[static_cast<std::size_t>(group)].next_due) {
      SampleGroup(static_cast<std::size_t>(group), now);
    }
  }

  std::uint64_t slices_recorded() const { return slices_recorded_; }
  std::uint64_t slices_dropped() const { return slices_dropped_; }
  std::uint64_t flows_recorded() const { return flows_recorded_; }
  std::uint64_t samples_recorded() const { return samples_recorded_; }
  std::uint64_t samples_dropped() const { return samples_dropped_; }
  std::size_t num_tracks() const { return tracks_.size(); }
  std::size_t num_series() const { return series_names_.size(); }

  // Chrome-trace JSON (load in Perfetto / chrome://tracing). Deterministic: metadata first
  // (process/thread names in track-creation order), then slices and samples merged by
  // (timestamp, record sequence). Timestamps are microseconds with nanosecond precision.
  //
  // Dual-clock mode: passing a SelfProfiler appends its host-clock slices as a fourth
  // process ("self-profile (host clock)", pid 3) with one track per simulator subsystem.
  // Both clocks start at ~0 (SimTime 0 and the profiler's Enable() epoch), so simulated-time
  // slices and the wall-clock cost that produced them render side by side on one time axis —
  // the trace is no longer byte-deterministic once host slices are included, which is why
  // benches only pass the profiler under --perf.
  std::string ExportChromeTrace(const SelfProfiler* host_profile = nullptr) const;

  // Sampled series as CSV: "series,t_ns,value", rows ordered by (t_ns, record sequence).
  std::string ExportTimeSeriesCsv() const;

 private:
  struct Slice {
    SimTime begin = 0;
    SimTime end = 0;
    std::uint64_t seq = 0;
    std::uint32_t name_id = 0;
    std::uint32_t track = 0;  // Index into tracks_.
  };

  struct Sample {
    SimTime t = 0;
    std::uint64_t seq = 0;
    std::uint32_t series = 0;  // Index into series_names_.
    double value = 0.0;
  };

  struct Track {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;  // Per-pid ordinal, in creation order.
    std::string name;
  };

  struct Flow {
    SimTime from_t = 0;
    SimTime to_t = 0;
    std::uint64_t seq = 0;  // Doubles as the flow id in the export.
    std::uint32_t name_id = 0;
    std::uint32_t from_track = 0;
    std::uint32_t to_track = 0;
  };

  struct Sampler {
    std::uint32_t series = 0;
    SampleKind kind = SampleKind::kInstant;
    std::function<double(SimTime)> fn;
    double prev = 0.0;  // Last cumulative value (kRate).
  };

  struct Group {
    std::string id;
    std::vector<Sampler> samplers;
    SimTime last = 0;      // Last emitted grid point.
    SimTime next_due = 0;  // Next grid point that triggers emission.
  };

  std::uint32_t InternName(std::string_view name);
  std::uint32_t InternTrack(std::uint32_t pid, std::string_view name);
  std::uint32_t InternSeries(std::string_view name);
  void PushSlice(std::uint32_t pid, std::string_view track, std::string_view name,
                 SimTime begin, SimTime end);
  void SampleGroup(std::size_t group, SimTime now);

  bool enabled_ = false;
  TimelineConfig config_;
  std::uint64_t next_seq_ = 1;

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::vector<Track> tracks_;
  std::map<std::string, std::uint32_t, std::less<>> track_ids_;  // Key: "<pid>/<name>".
  std::vector<std::string> series_names_;
  std::map<std::string, std::uint32_t, std::less<>> series_ids_;

  std::deque<Slice> slices_;
  std::deque<Sample> samples_;
  std::vector<Flow> flows_;
  std::uint64_t flows_recorded_ = 0;
  std::uint64_t slices_recorded_ = 0;
  std::uint64_t slices_dropped_ = 0;
  std::uint64_t samples_recorded_ = 0;
  std::uint64_t samples_dropped_ = 0;

  std::vector<Group> groups_;
  std::map<std::string, std::size_t, std::less<>> group_ids_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_TIMELINE_H_
