// The benchmark's four whole-stack workloads. Each repetition ("rep") builds one stack from
// scratch, preconditions or loads it (set-up), runs a fixed, seed-determined measured phase
// against the layers' public calls, and checks the outcome: every KV result against a
// reference model, CheckConsistency() on every mapping layer, and a SimTime fingerprint that
// must be identical in every rep and every mode of the same seed.
//
// See perfbench/NOTES.md for why each workload exists and how big it is.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace perfbench {

// How a rep runs. kUntraced is the end-to-end configuration: Telemetry attached to every
// layer, as in every bench, and nothing else. kTraced adds the benchmark's spans and the
// simulator's self-profiler. kDetached is the untraced run with no Telemetry attached.
enum class Mode { kUntraced, kTraced, kDetached };

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;               // Small sizes for the benchmark's own tests.
  bool corrupt_reference = false;   // Test hook: damage one reference value after the load.
  Mode mode = Mode::kUntraced;
  SpanLog* spans = nullptr;         // Required in kTraced.
};

struct RepResult {
  double setup_s = 0.0;     // Stack construction + preconditioning or load.
  double measured_s = 0.0;  // Wall time of the measured phase.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // Non-ok Status or a result that differs from the reference.
  std::uint32_t window_ops = 0;
  std::vector<double> window_s;  // Wall time of each window of window_ops measured ops.
  std::string fingerprint;               // SimTime-domain outcome of the rep.
  std::string error;                     // Set-up, consistency or reference failure.
  // Per-layer metrics the rep can derive from public stats (measured-phase deltas), the
  // self-profiler and the telemetry registry. Span-derived metrics are added by the caller.
  std::map<std::string, double> layer;

  double ops_per_s() const {
    return measured_s > 0.0 ? static_cast<double>(attempted) / measured_s : 0.0;
  }
};

const std::vector<std::string>& WorkloadNames();
// Untraced timings are best-of-N figures over groups of this many reps, then the median across
// groups. N is fixed per workload, so how optimistic a best-of figure is does not depend on
// how many reps fit into a run. It is about the number of full-size reps that take 10 s.
std::size_t RepsPerGroup(std::string_view workload);
// Whether the workload keeps a reference model (only those accept corrupt_reference).
bool HasReferenceModel(std::string_view workload);

RepResult RunRep(const RepOptions& opts);

// The fingerprint every rep must produce at kDefaultSeed; empty if none is pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;
std::string PinnedFingerprint(std::string_view workload, bool smoke);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
