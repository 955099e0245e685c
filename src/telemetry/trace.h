// Per-operation tracing spans for the simulated stack.
//
// A span brackets one host-visible operation (a KV Get, a zonefile Append, an FTL write) in
// SimTime. While a span is open, the flash device charges it the components of every host
// flash operation it performs:
//
//   * queue_ns — time the op's flash commands waited behind *other foreground* work
//     (plane/channel contention with earlier host commands);
//   * gc_ns    — time they waited behind *maintenance* work (GC copies, erases) — the
//     paper's GC-interference, measured rather than estimated;
//   * flash_ns — raw service time of the op's own commands (cell reads/programs + bus
//     transfers).
//
// Spans nest: every layer that opens a span while a caller's span is still open sees the same
// charges, so a single `kv.get` span accumulates exactly the flash work done on its behalf by
// the filesystem and device layers below. The simulation is single-threaded, so the open-span
// stack needs no synchronization and stays deterministic.
//
// When a span ends, its components are recorded into registry histograms:
//   span.<name>.total_ns   (end - begin)
//   span.<name>.queue_ns
//   span.<name>.gc_ns
//   span.<name>.flash_ns
//   span.<name>.host_ns    (total minus the three above: host-side time — buffering,
//                           write-pointer serialization, controller work)
// A span destroyed without End() (error paths) records no histograms, but bumps the
// span.<name>.abandoned counter so leaked/error-path spans are visible in snapshots.
//
// When a Timeline is attached (set_timeline), every ended span is additionally recorded as a
// duration slice on the timeline's host-ops track, SimTime-stamped, for Perfetto export.

#ifndef BLOCKHEAD_SRC_TELEMETRY_TRACE_H_
#define BLOCKHEAD_SRC_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/metric_registry.h"
#include "src/telemetry/timeline.h"
#include "src/util/types.h"

namespace blockhead {

// Flash-time components charged to open spans (see file comment).
struct SpanComponents {
  SimTime queue_ns = 0;
  SimTime gc_ns = 0;
  SimTime flash_ns = 0;
  std::uint64_t flash_ops = 0;
};

class Tracer {
 public:
  explicit Tracer(MetricRegistry* registry) : registry_(registry) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Handle to one open span. Move-only; End() records it, destruction without End() abandons
  // it silently (nothing recorded).
  class Span {
   public:
    Span() = default;  // Inactive handle: End() is a no-op.
    Span(Span&& other) noexcept : tracer_(other.tracer_), id_(other.id_) {
      other.tracer_ = nullptr;
    }
    Span& operator=(Span&& other) noexcept {
      if (this != &other) {
        Abandon();
        tracer_ = other.tracer_;
        id_ = other.id_;
        other.tracer_ = nullptr;
      }
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { Abandon(); }

    // Ends the span at `end` and records its histograms. Idempotent.
    void End(SimTime end);
    bool active() const { return tracer_ != nullptr; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::uint64_t id) : tracer_(tracer), id_(id) {}
    void Abandon();

    Tracer* tracer_ = nullptr;
    std::uint64_t id_ = 0;
  };

  // Opens a span named `name` starting at `begin` (SimTime).
  Span Start(std::string_view name, SimTime begin);

  // Attaches a timeline that receives every ended span as a slice (nullptr detaches).
  void set_timeline(Timeline* timeline) { timeline_ = timeline; }

  // Charges `c` to every open span. No-op when no span is open, so layers may charge
  // unconditionally.
  void Charge(const SpanComponents& c);

  // Drains every still-open span, bumping its span.<name>.abandoned counter. The bench
  // harness calls this in teardown so spans left open on early exit are visible in the final
  // snapshot instead of silently vanishing (their Span handles outlive the dump). Handles to
  // drained spans become inert: End()/destruction after this is a no-op.
  void AbandonOpen();

  bool active() const { return !open_.empty(); }
  std::size_t open_spans() const { return open_.size(); }

 private:
  struct OpenSpan {
    std::uint64_t id = 0;
    std::string name;
    SimTime begin = 0;
    SpanComponents components;
  };

  void Finish(std::uint64_t id, SimTime end);
  void Remove(std::uint64_t id);

  MetricRegistry* registry_;
  Timeline* timeline_ = nullptr;
  std::vector<OpenSpan> open_;
  std::uint64_t next_id_ = 1;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_TRACE_H_
