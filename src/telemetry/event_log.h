// Typed, SimTime-stamped event log: the discrete-event side of the observability stack.
//
// Where the MetricRegistry answers "how much" (aggregates) and the Timeline answers "when was
// what busy" (slices + series), the EventLog answers "what decisions did the stack take, in
// what order": zone state transitions (EMPTY -> OPEN -> FULL -> reset), GC victim selections,
// completed reclamation cycles, scheduler window open/close edges, block erases, LSM
// compactions, cache evictions.
//
// The log is a bounded ring buffer: appends beyond capacity evict the oldest record and bump
// dropped(). Per-type totals survive eviction, so SMART-style "log pages" (Page(type)) report
// both the retained tail and the lifetime count. Every record carries a sequence number
// assigned at append time; records with equal SimTime keep their append order, which makes
// renders and exports byte-stable across same-seed runs.
//
// Layers append only while telemetry is attached (the registry convention: telemetry off costs
// nothing). PublishTo() registers a provider that exports `<prefix>.total`, `<prefix>.dropped`
// and `<prefix>.<type>.count` counters into a registry before every snapshot.

#ifndef BLOCKHEAD_SRC_TELEMETRY_EVENT_LOG_H_
#define BLOCKHEAD_SRC_TELEMETRY_EVENT_LOG_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/metric_registry.h"
#include "src/util/types.h"

namespace blockhead {

enum class TimelineEventType : std::uint8_t {
  kZoneTransition,  // ZNS zone state machine edge (arg0 = zone id).
  kZoneReset,       // Zone reset completed (arg0 = zone id, arg1 = capacity after).
  kGcVictim,        // Victim selected (arg0 = block/zone id, arg1 = valid/live pages).
  kGcCycle,         // Reclamation cycle completed (arg0 = victim, arg1 = pages copied).
  kGcWindow,        // Scheduler opened (arg0 = 1) or closed (arg0 = 0) a GC window.
  kBlockErase,      // Flash block erase (arg0 = flat plane index, arg1 = block).
  kCompaction,      // LSM flush/compaction (arg0 = level, arg1 = input tables).
  kCacheEvict,      // Cache zone eviction (arg0 = zone id, arg1 = objects dropped).
  kFileLifecycle,   // Zonefile create/seal/delete (arg0 = file id).
  kShardMigration,  // Fleet shard migration started/completed (arg0 = shard, arg1 = device).
};

inline constexpr std::size_t kNumTimelineEventTypes = 10;

const char* TimelineEventTypeName(TimelineEventType type);

struct TimelineEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;  // Assigned by the log; breaks ties at equal SimTime.
  TimelineEventType type = TimelineEventType::kZoneTransition;
  std::string source;  // Reporting layer's metric prefix ("conv.ftl", "zns", ...).
  std::string detail;  // Short deterministic description ("zone 3 EMPTY->IMPLICIT_OPEN").
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 16384;

  explicit EventLog(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog();

  // Changing the capacity evicts oldest records if the log is over the new bound.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  // Appends a record (stamping its sequence number), evicting the oldest when full.
  void Append(TimelineEvent event);

  // Convenience for the common call shape.
  void Append(SimTime time, TimelineEventType type, std::string_view source,
              std::string detail, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  std::size_t size() const { return events_.size(); }
  std::uint64_t appended() const { return appended_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t appended_of(TimelineEventType type) const {
    return appended_by_type_[static_cast<std::size_t>(type)];
  }

  // Oldest-first view of every retained record.
  const std::deque<TimelineEvent>& events() const { return events_; }

  // SMART-style log page: the retained records of one type, oldest first (copies).
  std::vector<TimelineEvent> Page(TimelineEventType type) const;

  // Deterministic text render of one log page (for dumps and debugging):
  //   [<time_ns>] <source> <detail>
  std::string RenderPage(TimelineEventType type) const;

  // Deterministic JSON-lines dump of every retained record, oldest first. Consumed by the
  // bench `--events` flag and by tools/digest_bisect to print the decision window around a
  // digest divergence. Same seed -> byte-identical output.
  std::string DumpJson() const;

  // Registers a provider on `registry` exporting `<prefix>.total`, `<prefix>.dropped` and
  // `<prefix>.<type>.count`. Passing nullptr unregisters. The registry must outlive this log
  // or be detached first.
  void PublishTo(MetricRegistry* registry, std::string_view prefix = "events");

 private:
  std::size_t capacity_;
  std::deque<TimelineEvent> events_;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 1;
  std::array<std::uint64_t, kNumTimelineEventTypes> appended_by_type_{};

  MetricRegistry* registry_ = nullptr;
  std::string registry_prefix_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_EVENT_LOG_H_
