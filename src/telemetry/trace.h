// Per-operation tracing spans for the simulated stack.
//
// A span brackets one host-visible operation (a KV Get, a zonefile Append, an FTL write) in
// SimTime. The flash device splits every host flash op it performs into three components and
// charges them to the tracer:
//
//   * queue_ns — time the op's flash commands waited behind *other foreground* work
//     (plane/channel contention with earlier host commands);
//   * gc_ns    — time they waited behind *maintenance* work (GC copies, erases) — the
//     paper's GC-interference, measured rather than estimated;
//   * flash_ns — raw service time of the op's own commands (cell reads/programs + bus
//     transfers).
//
// The tracer keeps one running total per component; Charge adds to them in O(1). A span is a
// snapshot: it copies the totals at Start and subtracts them from the totals at End, so it
// sees exactly the charges made while it was open. Spans therefore nest and may end in any
// order: a `kv.get` span accumulates all flash work done on its behalf by the filesystem and
// device layers below, whose own spans see their share. Unsigned subtraction stays exact even
// if a total wraps. The simulation is single-threaded, so the totals need no synchronization.
//
// Span names are interned: a layer resolves each name once (Intern, at AttachTelemetry) into
// a Kind the tracer owns, and opens spans by Kind. When a span ends, its components are
// recorded into the kind's registry histograms:
//   span.<name>.total_ns   (end - begin)
//   span.<name>.queue_ns
//   span.<name>.gc_ns
//   span.<name>.flash_ns
//   span.<name>.host_ns    (total minus the three above: host-side time — buffering,
//                           write-pointer serialization, controller work)
// A span destroyed without End() (error paths) records no histograms, but bumps the
// span.<name>.abandoned counter so error-path spans are visible in snapshots. A kind looks up
// its histograms on its first End and its counter on its first abandon, so interning a name
// adds no registry rows by itself.
//
// Every ended span is also passed to the timeline, which records it as a duration slice on
// its host-ops track (SimTime-stamped, for Perfetto export) while the timeline is enabled.

#ifndef BLOCKHEAD_SRC_TELEMETRY_TRACE_H_
#define BLOCKHEAD_SRC_TELEMETRY_TRACE_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/telemetry/metric_registry.h"
#include "src/telemetry/timeline.h"
#include "src/util/types.h"

namespace blockhead {

class Tracer {
  struct Totals {
    SimTime queue_ns = 0;
    SimTime gc_ns = 0;
    SimTime flash_ns = 0;
  };

 public:
  Tracer(MetricRegistry* registry, Timeline* timeline)
      : registry_(registry), timeline_(timeline) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // An interned span name with its lazily resolved registry instruments. Layers only hold
  // pointers to kinds; the tracer fills them in.
  struct Kind {
    Tracer* tracer = nullptr;
    std::string_view name;  // The tracer's map key.
    Histogram* total = nullptr;
    Histogram* queue = nullptr;
    Histogram* gc = nullptr;
    Histogram* flash = nullptr;
    Histogram* host = nullptr;
    Counter* abandoned = nullptr;
  };

  // Handle to one open span. Move-only; End() records it, destruction without End() abandons
  // it (counted, nothing else recorded).
  class Span {
   public:
    Span() = default;  // Inactive handle: End() is a no-op.
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept {
      if (this != &other) {
        Abandon();
        kind_ = std::exchange(other.kind_, nullptr);
        begin_ = other.begin_;
        start_ = other.start_;
      }
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { Abandon(); }

    // Ends the span at `end` and records its histograms. Idempotent.
    void End(SimTime end);

   private:
    friend class Tracer;
    void Abandon();

    Kind* kind_ = nullptr;
    SimTime begin_ = 0;
    Totals start_;
  };

  // Returns the kind for `name`, creating it on first use. Kinds live as long as the tracer.
  Kind* Intern(std::string_view name);

  // Opens a span of `kind` starting at `begin` (SimTime). A null kind (telemetry detached)
  // yields an inactive handle.
  static Span Start(Kind* kind, SimTime begin);

  // Adds one host flash op's components to the running totals every open span snapshots.
  void Charge(SimTime queue_ns, SimTime gc_ns, SimTime flash_ns) {
    totals_.queue_ns += queue_ns;
    totals_.gc_ns += gc_ns;
    totals_.flash_ns += flash_ns;
  }

 private:
  MetricRegistry* registry_;
  Timeline* timeline_;
  Totals totals_;
  std::map<std::string, Kind, std::less<>> kinds_;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_TRACE_H_
