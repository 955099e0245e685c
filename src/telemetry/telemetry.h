// The telemetry bundle handed to every layer: one registry + one tracer + one event log + one
// timeline per measurement domain (usually one per bench process; benches comparing two stacks
// attach both to the same bundle under distinct prefixes, e.g. "conv" and "zns").
//
// Layers accept a `Telemetry*` via AttachTelemetry(t, prefix) and must tolerate nullptr
// (telemetry off — the default — costs nothing on the hot paths). At attach a layer resolves
// the names its hot paths use once: span kinds (Tracer::Intern), histogram pointers, ledger
// and audit handles, so opening a span builds no string. The event log records typed
// decisions (zone transitions, GC victims, scheduler windows) whenever telemetry is attached;
// the timeline (span/maintenance slices + sampled utilization series) additionally requires
// timeline.Enable(), which benches do for --trace/--timeseries.

#ifndef BLOCKHEAD_SRC_TELEMETRY_TELEMETRY_H_
#define BLOCKHEAD_SRC_TELEMETRY_TELEMETRY_H_

#include "src/telemetry/audit/state_digest.h"
#include "src/telemetry/event_log.h"
#include "src/telemetry/metric_registry.h"
#include "src/telemetry/provenance.h"
#include "src/telemetry/reqpath/request_path.h"
#include "src/telemetry/selfprof/self_profiler.h"
#include "src/telemetry/timeline.h"
#include "src/telemetry/trace.h"

namespace blockhead {

struct Telemetry {
  MetricRegistry registry;
  EventLog events;
  Timeline timeline;
  Tracer tracer{&registry, &timeline};  // Completed spans become timeline slices.
  WriteProvenance provenance;
  // Host-side wall-clock self-profiler (disabled unless a bench enables it for --perf).
  // Deliberately has no registry provider: its selfprof.host.* metrics are wall-clock-domain
  // and are published explicitly by the bench harness, never folded into deterministic
  // snapshots behind the simulation's back.
  SelfProfiler selfprof;
  // Per-request critical-path ledger (disabled unless a bench enables it; publishes nothing
  // while disabled, so feature-off snapshots match feature-absent ones byte for byte).
  RequestPathLedger reqpath;
  // State-digest auditor (disabled unless a bench enables it for --audit). Deliberately has
  // no registry provider: digests never appear in metric snapshots — enabled or not — so
  // BENCH_baseline.json and every byte-identity check are untouched by the feature. The
  // digest timeline file written by bench_main is its only output.
  StateAudit audit;

  Telemetry() {
    events.PublishTo(&registry);  // Event totals appear in every snapshot.
    // Per-cause program/erase counters and endurance projections join every snapshot.
    registry.AddProvider("provenance", [this] { provenance.PublishTo(&registry); });
    // Per-request segment totals, interference matrix, and SLO burn rates likewise.
    registry.AddProvider("reqpath", [this] { reqpath.PublishTo(&registry); });
  }
};

// Convenience for layers opening a CauseScope: the ledger when telemetry is attached, else
// nullptr (scope becomes a no-op).
inline WriteProvenance* ProvenanceOf(Telemetry* telemetry) {
  return telemetry == nullptr ? nullptr : &telemetry->provenance;
}

// Convenience for layers opening a SelfProfiler::Scope: the profiler when telemetry is
// attached, else nullptr (scope becomes a no-op; one branch either way while disabled).
inline SelfProfiler* ProfilerOf(Telemetry* telemetry) {
  return telemetry == nullptr ? nullptr : &telemetry->selfprof;
}

// Convenience for layers charging request-path intervals: the ledger when telemetry is
// attached, else nullptr (charges become one branch at the call site).
inline RequestPathLedger* ReqPathOf(Telemetry* telemetry) {
  return telemetry == nullptr ? nullptr : &telemetry->reqpath;
}

// Convenience for layers opening a RequestScope for a foreground host op: the ledger when
// telemetry is attached and no internal CauseScope is open, else nullptr. Work done under a
// CauseScope (GC copies, compaction, flushes) is never a host request of its own.
inline RequestPathLedger* ForegroundReqPathOf(Telemetry* telemetry) {
  return telemetry == nullptr || telemetry->provenance.open_scopes() != 0 ? nullptr
                                                                           : &telemetry->reqpath;
}

// Convenience for layers registering state-digest subsystems at AttachTelemetry: the audit
// when telemetry is attached, else nullptr (hooks stay one branch while disabled).
inline StateAudit* AuditOf(Telemetry* telemetry) {
  return telemetry == nullptr ? nullptr : &telemetry->audit;
}

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_TELEMETRY_H_
