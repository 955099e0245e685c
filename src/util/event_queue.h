// Deterministic discrete-event queue used by the closed/open-loop workload drivers.
//
// Events at equal times are popped in insertion order (a monotonically increasing sequence
// number breaks ties), which keeps multi-actor simulations reproducible.

#ifndef BLOCKHEAD_SRC_UTIL_EVENT_QUEUE_H_
#define BLOCKHEAD_SRC_UTIL_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "src/util/types.h"

namespace blockhead {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Payload payload;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void Push(SimTime time, Payload payload) {
    heap_.push(Event{time, next_seq_++, std::move(payload)});
  }

  // Time of the earliest event; queue must be nonempty.
  SimTime PeekTime() const { return heap_.top().time; }

  // Pops and returns the earliest event; queue must be nonempty.
  Event Pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_UTIL_EVENT_QUEUE_H_
