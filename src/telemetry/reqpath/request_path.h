// Per-request critical-path ledger: where did every nanosecond of one host op's latency go,
// and who inflicted the waits.
//
// The ZNS characterization papers show that tail latency on zoned (and conventional) devices
// is dominated by *interference* — GC copies, zone compaction, migrations, other tenants —
// not media latency. The stack's merged histograms can measure a p99.9 but cannot explain it.
// This module closes that gap with three pieces:
//
//   * A critical-path ledger. Each host operation carries a RequestContext (tenant id +
//     operation class) threaded from the fleet router down to flash ops. While the request is
//     active, every layer charges wall-to-wall SimTime intervals of its latency to exactly one
//     PathSegment (admission queue, device queue, flash busy, GC stall, compaction stall,
//     migration stall, replication straggler). Charges are clipped against a high-water mark
//     (arrival order wins overlap) so segments are exclusive by construction, and truncated at
//     the host-visible completion (write buffering acknowledges before the program lands).
//     Whatever no layer claimed becomes kHostOther. The attribution identity — sum of segment
//     durations == end-to-end latency, exactly — therefore holds for every request and is
//     unit-tested across stack configs like the provenance and selfprof identities.
//
//   * Tail exemplar capture. A bounded reservoir keeps the worst-k requests per op class with
//     their full segment breakdown and the identity of the interfering work: the per-request
//     (WriteCause × StackLayer) interference matrix plus the single longest interfering
//     interval and the maintenance track it ran on. Deterministic (ties keep the earliest
//     request), dumpable as JSON (--exemplars), and renderable as Chrome-trace flow arrows
//     from the interfering GC/compaction slice to the victim request.
//
//   * Per-tenant SLO tracking. Declarative objectives ("tenant 1 p99 read <= 400us") are
//     evaluated over rolling SimTime windows (RollingHistogram) with short/long-window
//     burn-rate counters published through MetricRegistry and a machine-readable report
//     (--slo). Burn rate = observed violation fraction / error budget (1 - quantile); an
//     objective is breached when both windows burn faster than budget.
//
// Cost model: disabled by default; every hot-path entry point is a single branch until
// Enable() (the selfprof pattern). When disabled, PublishTo emits nothing, so snapshots are
// byte-identical with the feature off vs. absent. Everything is SimTime-domain and
// deterministic — exemplar dumps and SLO reports are byte-identical across same-seed runs.
//
// Composite layers (the fleet gives every device its own Telemetry bundle) call DelegateTo
// so device-level charges land in the fleet-level active request; one hop only, like the
// self-profiler. The simulator is single-threaded: at most one request is active at a time,
// and RequestScope is outermost-wins (an inner scope while one is active is inert), so the
// fleet driver can own the request while per-device paths still work standalone.

#ifndef BLOCKHEAD_SRC_TELEMETRY_REQPATH_REQUEST_PATH_H_
#define BLOCKHEAD_SRC_TELEMETRY_REQPATH_REQUEST_PATH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/metric_registry.h"
#include "src/telemetry/provenance.h"
#include "src/util/histogram.h"
#include "src/util/types.h"

namespace blockhead {

class Timeline;

// Host operation class a request belongs to (the exemplar-reservoir and SLO key).
enum class ReqOp : std::uint8_t {
  kRead = 0,
  kWrite,
  kTrim,
};
inline constexpr int kReqOpCount = 3;
const char* ReqOpName(ReqOp op);

// Identity a host op carries through the stack. Passed by const reference and never stored
// past op completion (tools/lint.py enforces both); the ledger copies the two fields it
// needs into the active-request record.
struct RequestContext {
  std::uint32_t tenant = 0;  // Tenant / stream id (0 = the default tenant).
  ReqOp op = ReqOp::kRead;
};

// Exclusive critical-path segments. Every charged interval lands in exactly one.
enum class PathSegment : std::uint8_t {
  kAdmissionQueue = 0,  // Fleet admission: token wait, queue-full shed retries.
  kDeviceQueue,         // Serialization before media: bus wait, write-pointer sync, slots.
  kFlashBusy,           // The request's own media + transfer time.
  kGcStall,             // Waiting out device GC / wear migration on the target plane.
  kCompactionStall,     // Waiting out host-side reclaim (zone/LSM compaction, eviction).
  kMigrationStall,      // Waiting out fleet shard migration (dual-write mirror, copies).
  kReplication,         // Write fan-out: time beyond the fastest replica's path.
  kHostOther,           // Residual no layer claimed (host-side bookkeeping, idle gaps).
};
inline constexpr int kPathSegmentCount = 8;
const char* PathSegmentName(PathSegment seg);

// Folds an interfering write cause into the stall segment it manifests as.
PathSegment SegmentForCause(WriteCause cause);

struct ReqPathConfig {
  // Worst-k reservoir size per op class.
  std::size_t exemplars_per_op = 8;
};

// One objective: quantile of `op` latency for `tenant` must stay <= target_ns, evaluated
// over a rolling `window` (and a slow 8x window for the second burn-rate signal).
struct SloObjective {
  std::string name;  // Stable identifier used in metric names and the report.
  std::uint32_t tenant = 0;
  ReqOp op = ReqOp::kRead;
  double quantile = 0.99;
  std::uint64_t target_ns = 0;
  SimTime window = 10 * kMillisecond;
};

class RequestPathLedger {
 public:
  RequestPathLedger() = default;
  RequestPathLedger(const RequestPathLedger&) = delete;
  RequestPathLedger& operator=(const RequestPathLedger&) = delete;

  // Turns the ledger on (zeroes all accumulated state). Objectives survive re-Enable.
  void Enable(const ReqPathConfig& config = ReqPathConfig{});
  bool enabled() const { return enabled_; }
  const ReqPathConfig& config() const { return config_; }

  // Forwards everything to `target` (nullptr restores independence). The fleet delegates its
  // devices' ledgers to the fleet-level one so device-internal charges attribute to the
  // fleet-level active request. One hop only; delegates of delegates are not chased.
  void DelegateTo(RequestPathLedger* target) {
    delegate_ = (target == this) ? nullptr : target;
  }

  // Registers an SLO objective (deduplicated by name; re-adding replaces).
  void AddObjective(const SloObjective& objective);

  // RAII ownership of one request's measurement. Outermost wins: constructing a scope while
  // a request is already active yields an inert scope (the fleet driver opens the real one;
  // Fleet::Read/Write's internal scopes then no-op but still cover direct calls in tests).
  // Complete() closes the request at its host-visible completion time; destruction without
  // Complete() abandons it (counted, nothing recorded).
  class RequestScope {
   public:
    RequestScope(RequestPathLedger* ledger, const RequestContext& ctx, SimTime issue) {
      if (ledger != nullptr) {
        RequestPathLedger* l = ledger->Resolve();
        if (l->enabled_ && !l->active_ && l->suppress_ == 0) {
          owner_ = l;
          l->BeginRequest(ctx, issue);
        }
      }
    }
    RequestScope(const RequestScope&) = delete;
    RequestScope& operator=(const RequestScope&) = delete;
    ~RequestScope() {
      if (owner_ != nullptr) {
        owner_->AbandonRequest();
      }
    }

    void Complete(SimTime completion) {
      if (owner_ != nullptr) {
        owner_->CompleteRequest(completion);
        owner_ = nullptr;
      }
    }
    // True when this scope owns the active request (false: outer scope owns it, or disabled).
    bool owns() const { return owner_ != nullptr; }

   private:
    RequestPathLedger* owner_ = nullptr;
  };

  // Marks a section as internal background work driven from *outside* any layer entry point
  // (fleet migration chunk copies call device ReadBlocks/WriteBlocks directly): RequestScopes
  // constructed while one is open stay inert, so background copies are never recorded as host
  // requests. Nestable; no effect on an already-active request's charges.
  class SuppressScope {
   public:
    explicit SuppressScope(RequestPathLedger* ledger) {
      if (ledger != nullptr) {
        ledger_ = ledger->Resolve();
        ledger_->suppress_++;
      }
    }
    SuppressScope(const SuppressScope&) = delete;
    SuppressScope& operator=(const SuppressScope&) = delete;
    ~SuppressScope() {
      if (ledger_ != nullptr) {
        ledger_->suppress_--;
      }
    }

   private:
    RequestPathLedger* ledger_ = nullptr;
  };

  // Reclassifies every charge made while open (fleet: non-primary replica legs charge
  // kReplication, migration mirror writes charge kMigrationStall). Innermost wins.
  class SegmentOverrideScope {
   public:
    SegmentOverrideScope(RequestPathLedger* ledger, PathSegment segment) {
      if (ledger != nullptr) {
        RequestPathLedger* l = ledger->Resolve();
        if (l->enabled_) {
          ledger_ = l;
          l->override_stack_.push_back(OverrideRec{segment, false, WriteCause::kHostWrite,
                                                   StackLayer::kHost, {}});
        }
      }
    }
    SegmentOverrideScope(const SegmentOverrideScope&) = delete;
    SegmentOverrideScope& operator=(const SegmentOverrideScope&) = delete;
    ~SegmentOverrideScope() {
      if (ledger_ != nullptr) {
        ledger_->override_stack_.pop_back();
      }
    }

   private:
    RequestPathLedger* ledger_ = nullptr;
  };

  // Like SegmentOverrideScope, but every charge made while open additionally counts as
  // interference with the given identity. Host-side foreground reclaim uses this: the GC's
  // own flash ops run as host-class operations inside the victim's write path, so their
  // charges must land in the stall segment for `cause` and name the reclaim as interferer.
  class InterferenceScope {
   public:
    InterferenceScope(RequestPathLedger* ledger, WriteCause cause, StackLayer layer,
                      std::string_view track) {
      if (ledger != nullptr) {
        RequestPathLedger* l = ledger->Resolve();
        if (l->enabled_) {
          ledger_ = l;
          l->override_stack_.push_back(
              OverrideRec{SegmentForCause(cause), true, cause, layer, std::string(track)});
        }
      }
    }
    InterferenceScope(const InterferenceScope&) = delete;
    InterferenceScope& operator=(const InterferenceScope&) = delete;
    ~InterferenceScope() {
      if (ledger_ != nullptr) {
        ledger_->override_stack_.pop_back();
      }
    }

   private:
    RequestPathLedger* ledger_ = nullptr;
  };

  // Hot-path charge: attributes [start, end) of the active request's latency to `segment`.
  // The interval is clipped to the charge high-water mark (earlier charges win overlap) and
  // later truncated at completion. No-op (one delegate hop + one branch) when disabled or no
  // request is active.
  void ChargeInterval(SimTime start, SimTime end, PathSegment segment) {
    RequestPathLedger* l = Resolve();
    if (l->active_) {
      l->ChargeSlow(start, end, segment, /*is_interference=*/false, WriteCause::kHostWrite,
                    StackLayer::kHost, {});
    }
  }

  // Hot-path charge for waits inflicted by competing work: like ChargeInterval, but the
  // segment is derived from the interfering write cause (SegmentForCause), and the
  // (cause, layer, track) identity feeds the request's interference matrix and the exemplar
  // flow arrow. `track` is the timeline maintenance track the interferer ran on.
  void ChargeInterference(SimTime start, SimTime end, WriteCause cause, StackLayer layer,
                          std::string_view track) {
    RequestPathLedger* l = Resolve();
    if (l->active_) {
      l->ChargeSlow(start, end, SegmentForCause(cause), /*is_interference=*/true, cause,
                    layer, track);
    }
  }

  // True when a request is active on the resolved ledger — lets layers skip charge
  // bookkeeping wholesale.
  bool InRequest() {
    return Resolve()->active_;
  }

  // --- Accumulated results (resolved ledger state; tests and sinks) -----------------------

  struct OpTotals {
    std::uint64_t count = 0;
    std::uint64_t latency_ns = 0;                      // Sum of end-to-end latencies.
    std::uint64_t seg_ns[kPathSegmentCount] = {};      // Sum of per-segment charges.
  };

  struct Exemplar {
    RequestContext ctx;
    SimTime issue = 0;
    SimTime completion = 0;
    std::uint64_t latency_ns = 0;
    std::uint64_t seg_ns[kPathSegmentCount] = {};
    // Dominant interference over the whole request (ties: lowest cause, then layer index).
    WriteCause top_cause = WriteCause::kHostWrite;
    StackLayer top_layer = StackLayer::kHost;
    std::uint64_t top_interference_ns = 0;
    // Longest single interfering interval: the flow-arrow source.
    SimTime interferer_begin = 0;
    SimTime interferer_end = 0;
    WriteCause interferer_cause = WriteCause::kHostWrite;
    StackLayer interferer_layer = StackLayer::kHost;
    std::string interferer_track;  // Timeline maintenance track ("" = none recorded).
    std::uint64_t seq = 0;  // Completion order; the deterministic tiebreak.
  };

  const OpTotals& op_totals(ReqOp op) const {
    return op_totals_[static_cast<int>(op)];
  }
  // Worst-k for one op class, ordered (latency desc, seq asc).
  const std::vector<Exemplar>& exemplars(ReqOp op) const {
    return exemplars_[static_cast<int>(op)];
  }
  std::uint64_t completed() const { return seq_; }
  std::uint64_t abandoned() const { return abandoned_; }
  // Cumulative interference by (cause, layer) across all completed requests.
  std::uint64_t interference_ns(WriteCause cause, StackLayer layer) const {
    return cum_interference_ns_[static_cast<int>(cause)][static_cast<int>(layer)];
  }
  // The last completed request (identity spot checks in tests).
  const Exemplar& last_completed() const { return last_completed_; }

  // Aggregate attribution identity: these are equal exactly for any run.
  std::uint64_t TotalLatencyNs() const;
  std::uint64_t TotalSegmentNs() const;

  // One registered objective's standing at the last completion time (what the JSON report
  // serializes, exposed as a struct for bench tables and tests).
  struct SloSnapshot {
    SloObjective objective;
    std::uint64_t current_ns = 0;  // Rolling short-window quantile.
    std::uint64_t total = 0;       // Short-window completions.
    std::uint64_t violations = 0;  // Short-window target misses.
    double burn_short = 0.0;
    double burn_long = 0.0;
    bool breached = false;  // Both windows burning faster than the error budget.
  };
  std::vector<SloSnapshot> SloSnapshots() const;

  // --- Outputs ----------------------------------------------------------------------------

  // Publishes per-op segment totals, per-tenant latency histograms, the interference matrix,
  // and SLO burn rates under "reqpath.*". Emits nothing while disabled, so feature-off
  // snapshots are byte-identical to feature-absent ones.
  void PublishTo(MetricRegistry* registry) const;

  // Deterministic JSON dump of the exemplar reservoirs (--exemplars).
  std::string DumpExemplarsJson() const;

  // Deterministic JSON SLO report (--slo): per objective, the rolling quantile, violation
  // counts, and short/long burn rates at the last completion time.
  std::string SloReportJson() const;

  // Renders exemplars into `timeline`: a victim slice per exemplar on a per-op-class host
  // track plus a flow arrow from the interfering maintenance slice to the victim.
  void EmitExemplarTimeline(Timeline* timeline) const;

 private:
  struct ChargeRec {
    SimTime start = 0;
    SimTime end = 0;
    PathSegment segment = PathSegment::kHostOther;
  };

  struct OverrideRec {
    PathSegment segment = PathSegment::kHostOther;
    bool interference = false;  // Charges under this override count as interference too.
    WriteCause cause = WriteCause::kHostWrite;
    StackLayer layer = StackLayer::kHost;
    std::string track;
  };

  // Per-(tenant, op) accumulation. Keyed by (tenant << 2) | op — op fits in 2 bits.
  struct TenantTotals {
    std::uint64_t count = 0;
    std::uint64_t seg_ns[kPathSegmentCount] = {};
    Histogram latency;
  };

  struct SloState {
    SloObjective objective;
    RollingHistogram window_hist;   // Short window: the reported rolling quantile.
    RollingCounter short_total;     // Completions in the short window.
    RollingCounter short_violations;
    RollingCounter long_total;      // 8x window: the slow burn signal.
    RollingCounter long_violations;
  };

  struct SloEval {
    std::uint64_t current_ns = 0;  // Rolling quantile over the short window.
    std::uint64_t total = 0;       // Short-window completions.
    std::uint64_t violations = 0;  // Short-window target misses.
    double burn_short = 0.0;
    double burn_long = 0.0;
    bool breached = false;  // Both windows burning faster than the error budget.
  };
  SloEval Evaluate(const SloState& state, SimTime now) const;

  RequestPathLedger* Resolve() {
    return delegate_ != nullptr ? delegate_ : this;
  }

  void BeginRequest(const RequestContext& ctx, SimTime issue);
  void ChargeSlow(SimTime start, SimTime end, PathSegment segment, bool is_interference,
                  WriteCause cause, StackLayer layer, std::string_view track);
  void CompleteRequest(SimTime completion);
  void AbandonRequest();
  void OfferExemplar(const Exemplar& candidate);

  bool enabled_ = false;
  ReqPathConfig config_;
  RequestPathLedger* delegate_ = nullptr;
  int suppress_ = 0;  // SuppressScope depth: >0 keeps new RequestScopes inert.

  // Active request (at most one: the simulator is single-threaded).
  bool active_ = false;
  RequestContext ctx_;
  SimTime issue_ = 0;
  SimTime watermark_ = 0;           // End of the last accepted charge; earlier charges win overlap.
  std::vector<ChargeRec> charges_;  // Disjoint, ordered; capacity reused across requests.
  std::uint64_t req_interference_ns_[kWriteCauseCount][kStackLayerCount] = {};
  std::uint64_t longest_interference_ns_ = 0;
  SimTime interferer_begin_ = 0;
  SimTime interferer_end_ = 0;
  WriteCause interferer_cause_ = WriteCause::kHostWrite;
  StackLayer interferer_layer_ = StackLayer::kHost;
  std::string interferer_track_;
  std::vector<OverrideRec> override_stack_;

  // Run accumulation.
  std::uint64_t seq_ = 0;
  std::uint64_t abandoned_ = 0;
  OpTotals op_totals_[kReqOpCount];
  std::map<std::uint64_t, TenantTotals> tenants_;
  std::uint64_t cum_interference_ns_[kWriteCauseCount][kStackLayerCount] = {};
  Exemplar last_completed_;
  std::vector<Exemplar> exemplars_[kReqOpCount];
  std::vector<SloState> slos_;
  SimTime last_completion_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_REQPATH_REQUEST_PATH_H_
