// perfbench: host-cost benchmark of the blockhead simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--spans-out <path>] [--expect-fingerprint <fp>] [--corrupt-reference]
//
// Runs repetitions of one workload (see workloads.h) until --seconds of wall time have passed
// (whole groups of RepsPerGroup() untraced reps, or whole traced cycles), checks every rep,
// and prints as its last stdout line one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// --trace 0 reports the end-to-end metrics of untraced reps. --trace 1 cycles untraced,
// traced and telemetry-detached reps and reports the per-layer metrics of the traced ones,
// plus the two overhead shares the cycle measures. The process exits 1 if any check fails:
// a failed or wrong op, a CheckConsistency() failure, fingerprints that differ between reps
// or modes, or (at the default seed) a fingerprint that differs from the pinned one.
//
// Test hooks: --smoke shrinks every workload; --expect-fingerprint replaces the pinned
// fingerprint; --corrupt-reference damages one reference-model value (KV workloads).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kModeNames[] = {"untraced", "traced", "detached"};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "1/s"},          {"host_us_per_op_p50", "us"}, {"host_us_per_op_p99", "us"},
    {"setup_s", "s"},              {"peak_rss_mb", "MiB"},       {"success_rate", "share"},
};

// Every per-layer metric, in BENCHMARK.json order. A workload that does not run a layer
// reports 0 for that layer's metrics.
constexpr Metric kPerLayer[] = {
    {"workload.gen_ns_per_op", "ns"},
    {"flash.pages_programmed", "count"},
    {"flash.pages_read", "count"},
    {"flash.blocks_erased", "count"},
    {"flash.internal_program_share", "share"},
    {"flash.selfprof_share", "share"},
    {"ftl.write.us_p50", "us"},
    {"ftl.write.us_p99", "us"},
    {"ftl.read.us_p50", "us"},
    {"ftl.read.us_p99", "us"},
    {"ftl.gc_runs", "count"},
    {"ftl.gc_pages_copied", "count"},
    {"ftl.copies_per_reclaim", "ratio"},
    {"ftl.foreground_gc_stalls", "count"},
    {"ftl.gc_write.count", "count"},
    {"ftl.gc_write.us_mean", "us"},
    {"ftl.gc_us_per_cycle", "us"},
    {"ftl.write_amplification", "ratio"},
    {"ftl.selfprof_share", "share"},
    {"zns.pages_written", "count"},
    {"zns.pages_read", "count"},
    {"zns.pages_copied", "count"},
    {"zns.zone_resets", "count"},
    {"zns.selfprof_share", "share"},
    {"hostftl.write.us_p50", "us"},
    {"hostftl.write.us_p99", "us"},
    {"hostftl.read.us_p50", "us"},
    {"hostftl.read.us_p99", "us"},
    {"hostftl.pump.calls", "count"},
    {"hostftl.pump.us_mean", "us"},
    {"hostftl.pump.useful_ratio", "share"},
    {"hostftl.gc_cycles", "count"},
    {"hostftl.gc_pages_copied", "count"},
    {"hostftl.forced_gc_stalls", "count"},
    {"hostftl.write_amplification", "ratio"},
    {"hostftl.selfprof_share", "share"},
    {"sched.forced_stall_ms", "ms"},
    {"env.append.us_mean", "us"},
    {"env.read.us_p50", "us"},
    {"env.read.us_p99", "us"},
    {"env.sync.us_mean", "us"},
    {"env.calls", "count"},
    {"env.self_share", "share"},
    {"zonefile.gc_cycles", "count"},
    {"zonefile.gc_pages_copied", "count"},
    {"zonefile.zones_reclaimed", "count"},
    {"zonefile.meta_pages_written", "count"},
    {"zonefile.selfprof_share", "share"},
    {"kv.put.us_p50", "us"},
    {"kv.put.us_p99", "us"},
    {"kv.get.us_p50", "us"},
    {"kv.get.us_p99", "us"},
    {"kv.scan.us_p50", "us"},
    {"kv.scan.us_p99", "us"},
    {"kv.self_share", "share"},
    {"kv.env_reads_per_get", "ratio"},
    {"kv.env_reads_per_scan", "ratio"},
    {"kv.entries_per_scan", "ratio"},
    {"kv.flushes", "count"},
    {"kv.compactions", "count"},
    {"kv.bytes_compacted", "bytes"},
    {"kv.lsm_write_amplification", "ratio"},
    {"kv.stall_events", "count"},
    {"kv.selfprof_share", "share"},
    {"telemetry.overhead_share", "share"},
    {"telemetry.snapshot_ms", "ms"},
    {"telemetry.registry_rows", "count"},
    {"telemetry.selfprof_share", "share"},
    {"bench.trace_overhead_share", "share"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  bool corrupt_reference = false;
  std::optional<std::string> expect_fingerprint;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--spans-out <path>] [--expect-fingerprint <fp>] "
               "[--corrupt-reference]\nworkloads:",
               why);
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      const std::string v = value();
      args.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = v == "1" ? 1 : 0;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (flag == "--expect-fingerprint") {
      args.expect_fingerprint = value();
    } else if (flag == "--spans-out") {
      args.spans_out = value();
    } else {
      Usage(("unknown argument " + flag).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.corrupt_reference && !HasReferenceModel(args.workload)) {
    Usage("--corrupt-reference needs a KV workload");
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return sum;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

// Aggregates one traced rep's spans into per-layer metrics (durations in us).
void AddSpanMetrics(const SpanLog& log, RepResult* rep) {
  const auto& spans = log.spans();
  constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
  auto us = [](const SpanLog::Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  };
  std::vector<double> child_us(spans.size(), 0.0);
  for (const SpanLog::Span& s : spans) {
    if (s.parent != SpanLog::kNoParent) {
      child_us[static_cast<std::size_t>(s.parent)] += us(s);
    }
  }
  std::vector<std::vector<double>> durations(kNames);
  std::vector<double> total_us(kNames, 0.0);
  std::vector<double> self_us(kNames, 0.0);
  std::vector<double> gc_writes;
  std::vector<double> plain_writes;
  double env_reads_under_get = 0.0;
  double env_reads_under_scan = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& s = spans[i];
    const auto n = static_cast<std::size_t>(s.name);
    durations[n].push_back(us(s));
    total_us[n] += us(s);
    self_us[n] += us(s) - child_us[i];
    if (s.name == SpanName::kFtlWrite) {
      (s.flagged ? gc_writes : plain_writes).push_back(us(s));
    }
    if (s.name == SpanName::kEnvRead && s.parent != SpanLog::kNoParent) {
      const SpanName parent = spans[static_cast<std::size_t>(s.parent)].name;
      env_reads_under_get += parent == SpanName::kKvGet ? 1.0 : 0.0;
      env_reads_under_scan += parent == SpanName::kKvScan ? 1.0 : 0.0;
    }
  }
  auto d = [&](SpanName name) -> const std::vector<double>& {
    return durations[static_cast<std::size_t>(name)];
  };
  // Sum of `per_name` over the span names first..last (one layer's calls).
  auto sum_over = [](const std::vector<double>& per_name, SpanName first, SpanName last) {
    double sum = 0.0;
    for (auto n = static_cast<std::size_t>(first); n <= static_cast<std::size_t>(last); ++n) {
      sum += per_name[n];
    }
    return sum;
  };
  std::vector<double> calls(kNames);
  for (std::size_t n = 0; n < kNames; ++n) {
    calls[n] = static_cast<double>(durations[n].size());
  }
  auto& m = rep->layer;
  m["ftl.write.us_p50"] = Percentile(d(SpanName::kFtlWrite), 0.50);
  m["ftl.write.us_p99"] = Percentile(d(SpanName::kFtlWrite), 0.99);
  m["ftl.read.us_p50"] = Percentile(d(SpanName::kFtlRead), 0.50);
  m["ftl.read.us_p99"] = Percentile(d(SpanName::kFtlRead), 0.99);
  m["ftl.gc_write.count"] = static_cast<double>(gc_writes.size());
  m["ftl.gc_write.us_mean"] = Mean(gc_writes);
  m["ftl.gc_us_per_cycle"] =
      Ratio((Mean(gc_writes) - Mean(plain_writes)) * static_cast<double>(gc_writes.size()),
            m["ftl.gc_runs"]);
  m["hostftl.write.us_p50"] = Percentile(d(SpanName::kHostFtlWrite), 0.50);
  m["hostftl.write.us_p99"] = Percentile(d(SpanName::kHostFtlWrite), 0.99);
  m["hostftl.read.us_p50"] = Percentile(d(SpanName::kHostFtlRead), 0.50);
  m["hostftl.read.us_p99"] = Percentile(d(SpanName::kHostFtlRead), 0.99);
  m["hostftl.pump.us_mean"] = Mean(d(SpanName::kHostFtlPump));
  m["env.append.us_mean"] = Mean(d(SpanName::kEnvAppend));
  m["env.read.us_p50"] = Percentile(d(SpanName::kEnvRead), 0.50);
  m["env.read.us_p99"] = Percentile(d(SpanName::kEnvRead), 0.99);
  m["env.sync.us_mean"] = Mean(d(SpanName::kEnvSync));
  m["env.calls"] = sum_over(calls, SpanName::kEnvCreate, SpanName::kEnvMaintain);
  m["env.self_share"] = Ratio(sum_over(self_us, SpanName::kEnvCreate, SpanName::kEnvMaintain),
                              sum_over(total_us, SpanName::kEnvCreate, SpanName::kEnvMaintain));
  m["kv.put.us_p50"] = Percentile(d(SpanName::kKvPut), 0.50);
  m["kv.put.us_p99"] = Percentile(d(SpanName::kKvPut), 0.99);
  m["kv.get.us_p50"] = Percentile(d(SpanName::kKvGet), 0.50);
  m["kv.get.us_p99"] = Percentile(d(SpanName::kKvGet), 0.99);
  m["kv.scan.us_p50"] = Percentile(d(SpanName::kKvScan), 0.50);
  m["kv.scan.us_p99"] = Percentile(d(SpanName::kKvScan), 0.99);
  m["kv.self_share"] = Ratio(sum_over(self_us, SpanName::kKvPut, SpanName::kKvScan),
                             sum_over(total_us, SpanName::kKvPut, SpanName::kKvScan));
  m["kv.env_reads_per_get"] = Ratio(env_reads_under_get, sum_over(calls, SpanName::kKvGet,
                                                                   SpanName::kKvGet));
  m["kv.env_reads_per_scan"] = Ratio(env_reads_under_scan, sum_over(calls, SpanName::kKvScan,
                                                                     SpanName::kKvScan));
}

// Host us per op of each window of `window_ops` ops.
std::vector<double> UsPerOp(std::vector<double> window_s, std::uint32_t window_ops) {
  for (double& w : window_s) {
    w *= 1e6 / window_ops;
  }
  return window_s;
}

// Element-wise minimum across reps of a per-rep series. Reps that completed have series of
// equal length; a rep that failed early may have a shorter one.
std::vector<double> BestOfReps(const std::vector<RepResult*>& reps,
                               std::vector<double> RepResult::*series) {
  std::vector<double> best = reps.front()->*series;
  for (const RepResult* r : reps) {
    const std::vector<double>& s = r->*series;
    for (std::size_t i = 0; i < std::min(best.size(), s.size()); ++i) {
      best[i] = std::min(best[i], s[i]);
    }
  }
  return best;
}

double MedianOpsPerSecond(const std::vector<RepResult*>& reps) {
  std::vector<double> v;
  for (const RepResult* r : reps) {
    v.push_back(r->ops_per_s());
  }
  return Median(v);
}

// Peak resident set of this process image. VmHWM, unlike getrusage's ru_maxrss, is not
// carried over from the parent across exec, so a small process launched from a larger one
// reports its own peak.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

void PrintMetric(bool* first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", *first ? "" : ", ", name, value,
              unit);
  *first = false;
}

int Run(const Args& args) {
  std::deque<RepResult> reps;  // Every rep, every mode, in run order (stable addresses).
  std::vector<RepResult*> untraced;
  std::vector<RepResult*> traced;
  std::vector<RepResult*> detached;
  const std::uint64_t deadline =
      WallNowNs() + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::vector<Mode> cycle = {Mode::kUntraced};
  if (args.trace == 1) {
    cycle = {Mode::kUntraced, Mode::kTraced, Mode::kDetached};
  }
  // A run ends on a whole cycle; an untraced run also on a whole group.
  const std::size_t group_size = RepsPerGroup(args.workload);
  auto more = [&] {
    return reps.empty() || WallNowNs() < deadline ||
           (args.trace == 0 && untraced.size() % group_size != 0);
  };
  std::optional<SpanLog> last_spans;  // The last traced rep's spans, written at exit.
  while (more()) {
    for (const Mode mode : cycle) {
      RepOptions opts;
      opts.workload = args.workload;
      opts.seed = args.seed;
      opts.smoke = args.smoke;
      opts.corrupt_reference = args.corrupt_reference;
      opts.mode = mode;
      if (mode == Mode::kTraced) {
        last_spans.emplace();
        opts.spans = &*last_spans;
      }
      reps.push_back(RunRep(opts));
      RepResult& rep = reps.back();
      if (mode == Mode::kTraced) {
        AddSpanMetrics(*last_spans, &rep);
      }
      std::fprintf(stderr,
                   "perfbench: rep %zu %s setup %.4f s, measured %.4f s, %.1f ops/s, "
                   "window p50 %.4f us p99 %.4f us\n",
                   reps.size(), kModeNames[static_cast<int>(mode)], rep.setup_s, rep.measured_s,
                   rep.ops_per_s(), Percentile(UsPerOp(rep.window_s, rep.window_ops), 0.5),
                   Percentile(UsPerOp(rep.window_s, rep.window_ops), 0.99));
      (mode == Mode::kUntraced ? untraced : mode == Mode::kTraced ? traced : detached)
          .push_back(&rep);
    }
  }
  if (last_spans && !args.spans_out.empty() && !last_spans->WriteCsv(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
  }

  // Checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
      correct = false;
    }
    if (r.fingerprint != reps.front().fingerprint) {
      std::fprintf(stderr, "perfbench: fingerprint differs between reps:\n  %s\n  %s\n",
                   reps.front().fingerprint.c_str(), r.fingerprint.c_str());
      correct = false;
    }
  }
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu ops failed or returned wrong results\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    correct = false;
  }
  std::string expected = args.expect_fingerprint.value_or(
      args.seed == kDefaultSeed ? PinnedFingerprint(args.workload, args.smoke) : "");
  if (!expected.empty() && reps.front().fingerprint != expected) {
    std::fprintf(stderr, "perfbench: fingerprint mismatch\n  expected %s\n  got      %s\n",
                 expected.c_str(), reps.front().fingerprint.c_str());
    correct = false;
  }
  std::fprintf(stderr, "perfbench: %s seed=%llu reps=%zu fingerprint: %s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), reps.size(),
               reps.front().fingerprint.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (args.trace == 0) {
    // Every untraced rep replays the identical work, so window i covers the same ops in every
    // rep, and interference from other tenants of the host only ever adds wall time. Within a
    // group the timings therefore use each window's fastest time across the group's reps:
    // ops_per_s is the op count over the sum of those best window times, and the percentiles
    // are taken over them. Set-up is the group's fastest. Each figure is then the median
    // across groups.
    const std::uint32_t window_ops = untraced.front()->window_ops;
    std::vector<double> ops_per_s;
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> setup_s;
    for (auto g = untraced.begin(); g != untraced.end(); g += group_size) {
      const std::vector<RepResult*> group(g, g + group_size);
      const std::vector<double> us_per_op =
          UsPerOp(BestOfReps(group, &RepResult::window_s), window_ops);
      ops_per_s.push_back(Ratio(1e6, Mean(us_per_op)));
      p50.push_back(Percentile(us_per_op, 0.50));
      p99.push_back(Percentile(us_per_op, 0.99));
      double best_setup = group.front()->setup_s;
      for (const RepResult* r : group) {
        best_setup = std::min(best_setup, r->setup_s);
      }
      setup_s.push_back(best_setup);
    }
    std::fprintf(stderr,
                 "perfbench: %zu untraced reps in %zu groups of %zu, %zu windows of %u ops each\n",
                 untraced.size(), ops_per_s.size(), group_size,
                 untraced.front()->window_s.size(), window_ops);
    const double values[] = {
        Median(ops_per_s),
        Median(p50),
        Median(p99),
        Median(setup_s),
        PeakRssMiB(),
        Ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted)),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      PrintMetric(&first, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  } else {
    std::map<std::string, std::vector<double>> per_layer;
    for (const RepResult* r : traced) {
      for (const auto& [name, value] : r->layer) {
        per_layer[name].push_back(value);
      }
    }
    const double attached = MedianOpsPerSecond(untraced);
    per_layer["telemetry.overhead_share"] = {1.0 - attached / MedianOpsPerSecond(detached)};
    per_layer["bench.trace_overhead_share"] = {1.0 - MedianOpsPerSecond(traced) / attached};
    for (const Metric& metric : kPerLayer) {
      const auto it = per_layer.find(metric.name);
      PrintMetric(&first, metric.name, it == per_layer.end() ? 0.0 : Median(it->second),
                  metric.unit);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
