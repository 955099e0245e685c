// Shared harness for the bench_* binaries: uniform command-line flags, machine-readable
// registry dumps, and the self-profiling / repeat machinery behind `ci.sh --perf`.
//
// Every wired bench does:
//
//   int RunBench(const BenchOptions& opts, Telemetry& tel) {
//     ... attach layers ...
//     MaybeEnableTimeline(opts, tel);
//     ... run, print the usual tables ...
//     return FinishBench(opts, "bench_foo", tel);
//   }
//   int main(int argc, char** argv) { return RunBenchMain(argc, argv, "bench_foo", RunBench); }
//
// RunBenchMain owns the Telemetry bundle so `--repeat N` can run the body N times against a
// fresh bundle each time. SimTime-domain output is asserted byte-identical across repeats
// (same seed -> same simulation, whatever the host is doing); only wall-clock-domain rows
// (the "selfprof.host." prefix) may differ, and files are written for the final repeat only.
// The bench's stdout report prints once per repeat.
//
// Flags:
//   --json <path>        dump the full metric registry as JSON-lines (deterministic: same
//                        seed -> byte-identical file; this is what BENCH_*.json trajectories
//                        and bench/run_suite.sh consume)
//   --csv <path>         same dump as CSV
//   --trace <path>       write the recorded timeline as Chrome-trace JSON (open in Perfetto);
//                        deterministic: same seed -> byte-identical file — unless --perf is
//                        on, which adds the host-clock self-profile track (dual-clock trace)
//   --timeseries <path>  write the sampled utilization series as CSV (series,t_ns,value)
//   --metrics            also print the registry as a table to stdout
//   --perf               enable the host-side self-profiler: wall-clock cost attribution per
//                        (subsystem, op), events/sec, ns per simulated flash op, sim speedup
//                        and memory, published under "selfprof.host.*" in --json/--csv
//   --repeat <n>         run the bench body n times (fresh telemetry each time); derived
//                        perf gauges are medians across repeats (noise suppression for the
//                        regression gate), and SimTime-domain output must be byte-identical
//   --exemplars <path>   enable the reqpath critical-path ledger and write the worst-k tail
//                        exemplars (per op type, full segment breakdown + top interferer) as
//                        JSON; also adds victim<->interferer flow arrows to --trace output.
//                        Deterministic: same seed -> byte-identical file
//   --slo <path>         enable the reqpath ledger and write the machine-readable SLO report
//                        (burn rates per registered objective) as JSON; benches register
//                        their objectives via telemetry.reqpath.AddObjective
//   --audit <path>       enable the state-digest audit layer and write the digest timeline
//                        (one JSON line per touched (epoch, subsystem) cell plus final
//                        per-subsystem and whole-run digests). Deterministic: same seed ->
//                        byte-identical file; tools/digest_bisect compares two of these.
//                        Epoch length defaults to 10 ms SimTime (BLOCKHEAD_AUDIT_EPOCH_NS
//                        overrides). Adds zero registry rows: --json output is unchanged.
//   --events <path>      write the retained event log as JSON-lines (the decision window
//                        digest_bisect prints around a divergence)
//   --help               usage

#ifndef BLOCKHEAD_BENCH_BENCH_MAIN_H_
#define BLOCKHEAD_BENCH_BENCH_MAIN_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/sink.h"
#include "src/telemetry/telemetry.h"

namespace blockhead {

// Cross-repeat state owned by RunBenchMain; benches never touch it. FinishBench uses it to
// assert determinism, collect per-repeat perf samples, and defer file writes to the last
// repeat.
struct BenchRepeatState {
  int index = 0;  // Current repeat, 0-based.
  int total = 1;
  // JSON-lines dump of repeat 0 with wall-clock-domain rows stripped: the SimTime-domain
  // fingerprint every later repeat must reproduce byte for byte.
  std::string reference_dump;
  std::vector<SelfProfSample> samples;  // One per completed repeat while --perf is on.
};

struct BenchOptions {
  std::string json_path;
  std::string csv_path;
  std::string trace_path;
  std::string timeseries_path;
  std::string ledger_path;
  std::string exemplars_path;
  std::string slo_path;
  std::string audit_path;
  std::string events_path;
  bool print_metrics = false;
  bool perf = false;  // --perf: self-profiler on (RunBenchMain enables it per repeat).
  int repeat = 1;     // --repeat: bench body runs this many times.
  // Set by RunBenchMain; nullptr when a bench is driven without the runner (tests).
  BenchRepeatState* repeat_state = nullptr;
};

inline BenchOptions ParseBenchArgs(int argc, char** argv, const char* bench_name) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires an argument\n", bench_name, flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--json") == 0) {
      opts.json_path = need_value("--json");
    } else if (std::strcmp(arg, "--csv") == 0) {
      opts.csv_path = need_value("--csv");
    } else if (std::strcmp(arg, "--trace") == 0) {
      opts.trace_path = need_value("--trace");
    } else if (std::strcmp(arg, "--timeseries") == 0) {
      opts.timeseries_path = need_value("--timeseries");
    } else if (std::strcmp(arg, "--ledger") == 0) {
      opts.ledger_path = need_value("--ledger");
    } else if (std::strcmp(arg, "--exemplars") == 0) {
      opts.exemplars_path = need_value("--exemplars");
    } else if (std::strcmp(arg, "--slo") == 0) {
      opts.slo_path = need_value("--slo");
    } else if (std::strcmp(arg, "--audit") == 0) {
      opts.audit_path = need_value("--audit");
    } else if (std::strcmp(arg, "--events") == 0) {
      opts.events_path = need_value("--events");
    } else if (std::strcmp(arg, "--metrics") == 0) {
      opts.print_metrics = true;
    } else if (std::strcmp(arg, "--perf") == 0) {
      opts.perf = true;
    } else if (std::strcmp(arg, "--repeat") == 0) {
      const char* value = need_value("--repeat");
      char* end = nullptr;
      const long n = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || n < 1) {
        std::fprintf(stderr, "%s: --repeat wants a positive integer, got '%s'\n", bench_name,
                     value);
        std::exit(2);
      }
      opts.repeat = static_cast<int>(n);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--json <path>] [--csv <path>] [--trace <path>] [--timeseries <path>] "
          "[--ledger <path>] [--exemplars <path>] [--slo <path>] [--audit <path>] "
          "[--events <path>] [--metrics] [--perf] [--repeat <n>]\n",
          bench_name);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", bench_name, arg);
      std::exit(2);
    }
  }
  return opts;
}

// Turns timeline recording on when --trace or --timeseries was requested. Call after the
// layers are attached (attachment registers the sampler groups; Enable resets their clocks).
inline void MaybeEnableTimeline(const BenchOptions& opts, Telemetry& telemetry) {
  if (!opts.trace_path.empty() || !opts.timeseries_path.empty()) {
    telemetry.timeline.Enable();
  }
}

// Drops wall-clock-domain rows (metric names under SelfProfiler::kHostMetricPrefix) from a
// sink dump, leaving the SimTime-domain rows used for determinism comparison. Works on any
// line-oriented sink output (JSON-lines, CSV).
inline std::string StripHostMetricRows(std::string_view dump) {
  std::string out;
  out.reserve(dump.size());
  std::size_t pos = 0;
  while (pos < dump.size()) {
    std::size_t eol = dump.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = dump.size() - 1;
    }
    const std::string_view line = dump.substr(pos, eol - pos + 1);
    if (line.find(SelfProfiler::kHostMetricPrefix) == std::string_view::npos) {
      out += line;
    }
    pos = eol + 1;
  }
  return out;
}

// Overwrites the derived perf gauges with medians across the per-repeat samples. Counters
// that are simulation-determined (total_events, flash_events) agree across repeats already;
// medians exist to suppress host noise in the wall-clock-derived rows the perf gate reads.
inline void PublishMedianPerfSample(MetricRegistry& registry,
                                    const std::vector<SelfProfSample>& samples) {
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  std::vector<double> wall, eps, nspo, speedup;
  for (const SelfProfSample& s : samples) {
    wall.push_back(static_cast<double>(s.wall_elapsed_ns));
    eps.push_back(s.events_per_sec);
    nspo.push_back(s.ns_per_simulated_op);
    speedup.push_back(s.sim_speedup);
  }
  const std::string p = SelfProfiler::kHostMetricPrefix;
  registry.GetCounter(p + "wall_elapsed_ns")->Set(static_cast<std::uint64_t>(median(wall)));
  registry.GetGauge(p + "events_per_sec")->Set(median(eps));
  registry.GetGauge(p + "ns_per_simulated_op")->Set(median(nspo));
  registry.GetGauge(p + "sim_speedup")->Set(median(speedup));
  registry.GetCounter(p + "repeats")->Set(samples.size());
}

// Dumps the registry to every sink the flags requested. Returns the bench's exit code.
// (--ledger and span finalization need the full bundle; see the Telemetry overload.)
inline int FinishBench(const BenchOptions& opts, const char* bench_name,
                       MetricRegistry& registry) {
  const auto snapshot = registry.Snapshot();
  if (opts.print_metrics) {
    std::string table;
    TableSink().Render(bench_name, snapshot, &table);
    std::printf("\n%s", table.c_str());
  }
  if (!opts.json_path.empty()) {
    std::string json;
    JsonLinesSink().Render(bench_name, snapshot, &json);
    const Status s = WriteStringToFile(opts.json_path, json);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --json: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  if (!opts.csv_path.empty()) {
    std::string csv;
    CsvSink().Render(bench_name, snapshot, &csv);
    const Status s = WriteStringToFile(opts.csv_path, csv);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --csv: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

// Full-bundle variant: registry sinks plus the timeline exports (--trace / --timeseries) and
// the provenance ledger (--ledger). Teardown finalization happens here, before the snapshot:
// the provenance provider publishes the ledger's final per-cause counts, so --json/--ledger
// output is complete even on an early exit. No span can still be open: spans are
// function-local handles inside the layers' entry points.
//
// Under RunBenchMain this is also the per-repeat boundary: every repeat's SimTime-domain dump
// is compared byte for byte against repeat 0 (exit 3 on divergence — a wall-clock leak into
// simulation state), a --perf sample is recorded, and everything file-shaped happens on the
// last repeat only, with median gauges published first.
inline int FinishBench(const BenchOptions& opts, const char* bench_name, Telemetry& telemetry) {
  BenchRepeatState* rs = opts.repeat_state;
  const bool last = rs == nullptr || rs->index + 1 >= rs->total;
  if (rs != nullptr && rs->total > 1) {
    // Attribute the determinism dump to the telemetry subsystem: rendering the registry is
    // harness overhead the profile should own up to, not hide.
    std::string dump;
    {
      SelfProfiler::Scope prof_scope(&telemetry.selfprof, ProfSubsystem::kTelemetry,
                                     ProfOp::kSinkRender);
      JsonLinesSink().Render(bench_name, telemetry.registry.Snapshot(), &dump);
    }
    std::string stripped = StripHostMetricRows(dump);
    if (rs->index == 0) {
      rs->reference_dump = std::move(stripped);
    } else if (stripped != rs->reference_dump) {
      std::fprintf(stderr,
                   "%s: repeat %d diverged from repeat 0 in SimTime-domain output — "
                   "simulation state leaked wall-clock dependence\n",
                   bench_name, rs->index);
      return 3;
    }
  }
  if (telemetry.selfprof.enabled() && rs != nullptr) {
    rs->samples.push_back(telemetry.selfprof.Sample());
  }
  if (!last) {
    return 0;
  }
  if (telemetry.selfprof.enabled()) {
    telemetry.selfprof.PublishTo(telemetry.registry);
    if (rs != nullptr && rs->samples.size() > 1) {
      PublishMedianPerfSample(telemetry.registry, rs->samples);
    }
  }
  const int rc = FinishBench(opts, bench_name, telemetry.registry);
  if (rc != 0) {
    return rc;
  }
  if (!opts.ledger_path.empty()) {
    const Status s = WriteStringToFile(opts.ledger_path, telemetry.provenance.Dump());
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --ledger: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  if (!opts.exemplars_path.empty()) {
    const Status s = WriteStringToFile(opts.exemplars_path, telemetry.reqpath.DumpExemplarsJson());
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --exemplars: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  if (!opts.slo_path.empty()) {
    const Status s = WriteStringToFile(opts.slo_path, telemetry.reqpath.SloReportJson());
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --slo: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  if (!opts.audit_path.empty()) {
    const Status s = WriteStringToFile(opts.audit_path, telemetry.audit.DumpJson());
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --audit: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  if (!opts.events_path.empty()) {
    const Status s = WriteStringToFile(opts.events_path, telemetry.events.DumpJson());
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --events: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  if (telemetry.reqpath.enabled()) {
    // Tail exemplars become timeline slices with victim<->interferer flow arrows; must land
    // before the trace export below so they are part of the stream.
    telemetry.reqpath.EmitExemplarTimeline(&telemetry.timeline);
  }
  if (!opts.trace_path.empty()) {
    // Dual-clock export: with --perf the host-clock self-profile rides along as a fourth
    // process track; without it the trace stays byte-identical to the pre-profiler format.
    const SelfProfiler* host_profile =
        telemetry.selfprof.enabled() ? &telemetry.selfprof : nullptr;
    const Status s =
        WriteStringToFile(opts.trace_path, telemetry.timeline.ExportChromeTrace(host_profile));
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --trace: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  if (!opts.timeseries_path.empty()) {
    const Status s =
        WriteStringToFile(opts.timeseries_path, telemetry.timeline.ExportTimeSeriesCsv());
    if (!s.ok()) {
      std::fprintf(stderr, "%s: --timeseries: %s\n", bench_name, s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

// Bench entry point: parses flags, then runs `body` opts.repeat times, each against a fresh
// Telemetry bundle (so repeats are independent simulations, not warm continuations). With
// --perf the self-profiler is enabled before each run; FinishBench (called by the body)
// handles per-repeat sampling, the determinism assert, and last-repeat publication.
inline int RunBenchMain(int argc, char** argv, const char* bench_name,
                        const std::function<int(const BenchOptions&, Telemetry&)>& body) {
  BenchOptions opts = ParseBenchArgs(argc, argv, bench_name);
  BenchRepeatState state;
  state.total = opts.repeat;
  opts.repeat_state = &state;
  int rc = 0;
  for (state.index = 0; state.index < state.total; ++state.index) {
    Telemetry telemetry;
    if (opts.perf) {
      telemetry.selfprof.Enable();
    }
    if (!opts.exemplars_path.empty() || !opts.slo_path.empty()) {
      // Enable-before-body, like the self-profiler: layer charge sites test enabled() per op,
      // so activation is independent of attachment order. Zero overhead when off.
      telemetry.reqpath.Enable();
    }
    if (!opts.audit_path.empty()) {
      // Same enable-before-body discipline: digest hooks test armed() per mutation, so the
      // audit activates regardless of when each layer attaches.
      telemetry.audit.Enable(AuditConfig{});
    }
    rc = body(opts, telemetry);
    if (rc != 0) {
      return rc;
    }
  }
  return rc;
}

}  // namespace blockhead

#endif  // BLOCKHEAD_BENCH_BENCH_MAIN_H_
